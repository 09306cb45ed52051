//! The in-process campaigns (DPA and TVLA), built from the same library
//! entry points `repro` uses, with a span around every call into a crate
//! when the run is traced.

use crate::trace::{SpanId, Tracer};
use emask_attack::dpa::{plaintext_for, recover_subkey_multibit_par, DpaConfig, DpaResult};
use emask_attack::online::{OnlineDpa, OnlineWelch};
use emask_bench::experiments::TvlaReport;
use emask_core::{DesProgramSpec, EnergyParams, MaskPolicy, MaskedDes, Phase};
use emask_cpu::{Cpu, CpuBackend, RunResult};
use emask_des::bits::to_bit_vec;
use emask_des::KeySchedule;
use emask_energy::EnergyModel;
use emask_par::{merge_shards, run_sharded, trial_seed, Jobs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};

pub use emask_bench::experiments::{KEY, PLAINTEXT};

/// A compiled device plus what the probe encryption found out about it.
pub struct Device {
    pub des: MaskedDes,
    /// The round-1 window (DPA).
    pub round1: Range<usize>,
    /// Key permutation through the last round (TVLA).
    pub kp_to_last: Range<usize>,
    /// Samples per full trace (one per simulated cycle).
    pub trace_len: usize,
    /// Pipeline statistics of the probe encryption.
    pub stats: RunResult,
}

/// Compile, probe encryption and phase-window discovery: everything a
/// campaign needs before its first trial.
pub fn setup(
    policy: MaskPolicy,
    rounds: usize,
    tr: &Tracer,
    parent: SpanId,
) -> Result<Device, String> {
    let des = tr
        .span("cc.compile", parent, None, |_| {
            MaskedDes::compile_spec(policy, &DesProgramSpec { rounds })
        })
        .map_err(|e| format!("compile {policy:?}/{rounds}r: {e}"))?;
    let probe = tr
        .span("core.probe", parent, None, |_| des.encrypt(PLAINTEXT, KEY))
        .map_err(|e| format!("probe encryption: {e}"))?;
    let phase = |p: Phase| {
        probe.phase_window(p).ok_or_else(|| format!("{policy:?}/{rounds}r: no {p} window"))
    };
    let last = u8::try_from(rounds).map_err(|e| e.to_string())?;
    Ok(Device {
        round1: phase(Phase::Round(1))?,
        kp_to_last: phase(Phase::KeyPermutation)?.start..phase(Phase::Round(last))?.end,
        trace_len: probe.trace.len(),
        stats: probe.stats,
        des,
    })
}

/// Live accumulator count with its high-water mark.
#[derive(Default)]
pub struct Gauge {
    now: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    fn add(&self, d: i64) {
        let v = self.now.fetch_add(d, Ordering::Relaxed) + d;
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// The true round-1 subkey slice of `sbox` under [`KEY`].
pub fn true_subkey(sbox: usize) -> u8 {
    KeySchedule::new(KEY).round_key(1).sbox_slice(sbox)
}

/// One DPA campaign: `cfg.samples` traces of `window` folded
/// into a multi-bit difference-of-means accumulator over `jobs` workers.
///
/// Untraced, this is exactly `recover_subkey_multibit_par` over
/// `trace_oracle`, as `repro dpa` runs it. Traced, the same steps are
/// spelled out (`run_sharded`, `encrypt`, window copy, `OnlineDpa::push`,
/// `merge_shards`, `result`) so each gets its own span; the result is
/// checked to be identical to the untraced one.
pub fn dpa_campaign(
    dev: &Device,
    window: &Range<usize>,
    cfg: &DpaConfig,
    jobs: Jobs,
    tr: &Tracer,
    parent: SpanId,
    live: &Gauge,
) -> DpaResult {
    if !tr.enabled() {
        return recover_subkey_multibit_par(&dev.des.trace_oracle(KEY, window.clone()), cfg, jobs);
    }
    let proto = OnlineDpa::multibit(cfg.sbox, cfg.bit);
    let accs = tr.span("par.run_sharded", parent, None, |rs| {
        run_sharded(jobs, cfg.samples, |shard, range| {
            tr.span("par.shard", rs, Some(shard as u64), |sp| {
                live.add(1);
                let mut acc = proto.clone();
                for i in range {
                    let item = Some(i as u64);
                    let p = plaintext_for(cfg.seed, i as u64);
                    let run = tr.span("core.encrypt", sp, item, |_| {
                        dev.des.encrypt(p, KEY).expect("oracle run")
                    });
                    let trace = tr.span("energy.window_copy", sp, item, |_| {
                        run.trace.window(window.clone()).samples().to_vec()
                    });
                    tr.span("attack.dpa_push", sp, item, |_| acc.push(p, &trace))
                        .expect("oracle produced a misaligned trace");
                }
                acc
            })
        })
    });
    let merged = tr.span("par.merge_shards", parent, None, |_| {
        merge_shards(accs, |a, b| {
            a.merge(&b).expect("shards saw traces of different widths");
            live.add(-1);
        })
    });
    let result =
        tr.span("attack.result", parent, None, |_| merged.as_ref().unwrap_or(&proto).result());
    live.add(-i64::from(merged.is_some()));
    result
}

/// A DPA result as CSV (one row per guess, then the verdict), and whether
/// it recovered the true subkey by the `repro dpa` criterion.
pub fn dpa_csv(r: &DpaResult, sbox: usize) -> (String, bool) {
    let truth = true_subkey(sbox);
    let best = r.peaks[r.best_guess as usize];
    let recovered = r.best_guess == truth && r.margin > 1.0 && best > 0.5;
    let mut csv = String::from("guess,peak_pj,peak_cycle\n");
    for g in 0..64 {
        csv.push_str(&format!("{g},{},{}\n", r.peaks[g], r.peak_cycles[g]));
    }
    csv.push_str(&format!(
        "# best_guess,{}\n# margin,{}\n# true_subkey,{truth}\n# recovered,{recovered}\n",
        r.best_guess, r.margin
    ));
    (csv, recovered)
}

/// One fixed-vs-random-key TVLA campaign over window `w`:
/// `groups` trials of one fixed-key and one random-key encryption, folded
/// into a two-group Welch accumulator over `jobs` workers — the same
/// trials, in the same shard order, as `experiments::tvla_par`.
#[allow(clippy::too_many_arguments)]
pub fn tvla_campaign(
    dev: &Device,
    w: &Range<usize>,
    groups: usize,
    seed: u64,
    jobs: Jobs,
    tr: &Tracer,
    parent: SpanId,
    live: &Gauge,
) -> TvlaReport {
    let accs = tr.span("par.run_sharded", parent, None, |rs| {
        run_sharded(jobs, groups, |shard, range| {
            tr.span("par.shard", rs, Some(shard as u64), |sp| {
                live.add(1);
                let mut acc = OnlineWelch::new();
                for i in range {
                    let item = Some(i as u64);
                    let k: u64 = StdRng::seed_from_u64(trial_seed(seed, i as u64)).gen();
                    for (key, group) in [(KEY, &mut acc.g0), (k, &mut acc.g1)] {
                        let run = tr.span("core.encrypt", sp, item, |_| {
                            dev.des.encrypt(PLAINTEXT, key).expect("tvla run")
                        });
                        let trace = tr
                            .span("energy.window_copy", sp, item, |_| run.trace.window(w.clone()));
                        tr.span("attack.welch_push", sp, item, |_| group.push(trace.samples()))
                            .expect("aligned traces");
                    }
                }
                acc
            })
        })
    });
    let merged = tr
        .span("par.merge_shards", parent, None, |_| {
            merge_shards(accs, |a, b| {
                a.merge(&b).expect("aligned shards");
                live.add(-1);
            })
        })
        .unwrap_or_default();
    let t = tr.span("attack.result", parent, None, |_| merged.welch_t());
    live.add(-1);
    let (at_cycle, max_t) =
        t.iter()
            .enumerate()
            .fold((0, 0.0f64), |best, (i, &v)| if v.abs() > best.1 { (i, v.abs()) } else { best });
    let leaky_cycles = t.iter().filter(|v| v.abs() >= 4.5).count();
    TvlaReport { max_t, at_cycle, leaky_cycles, group_size: groups }
}

/// A TVLA report as the service's tvla CSV.
pub fn tvla_csv(r: &TvlaReport) -> String {
    format!(
        "group_size,max_t,at_cycle,leaky_cycles,leaking\n{},{},{},{},{}\n",
        r.group_size,
        r.max_t,
        r.at_cycle,
        r.leaky_cycles,
        r.max_t.abs() > 4.5
    )
}

/// The device image loaded into a fresh pipeline with `key` and
/// `plaintext` poked into data memory, as `MaskedDes::encrypt` does.
fn loaded(
    des: &MaskedDes,
    key: u64,
    plaintext: u64,
    tr: &Tracer,
    parent: SpanId,
    item: u64,
) -> Cpu {
    let program = des.program();
    let mut cpu = tr.span("cpu.load", parent, Some(item), |_| <Cpu as CpuBackend>::load(program));
    for (name, value) in [("key", key), ("data", plaintext)] {
        let base = program.try_data_addr(name).expect("DES image exports key and data");
        for (i, bit) in to_bit_vec(value).iter().enumerate() {
            cpu.memory_mut()
                .store(base + 4 * i as u32, u32::from(*bit))
                .expect("image holds 64 words");
        }
    }
    cpu
}

/// The per-layer split `encrypt` does not expose: for each sampled
/// plaintext, time `Cpu::load`, the bare pipeline (`Cpu::run`), and the
/// pipeline driving the energy model (`run_with(EnergyModel::observe)`).
pub fn probe_layers(dev: &Device, plaintexts: &[u64], tr: &Tracer, parent: SpanId) {
    const CYCLE_LIMIT: u64 = 50_000_000;
    for (i, &p) in plaintexts.iter().enumerate() {
        let item = i as u64;
        let mut cpu = loaded(&dev.des, KEY, p, tr, parent, item);
        let bare = tr
            .span("cpu.pipeline", parent, Some(item), |_| cpu.run(CYCLE_LIMIT))
            .expect("bare run");
        let mut cpu = loaded(&dev.des, KEY, p, tr, parent, item);
        let mut model = EnergyModel::with_params(EnergyParams::calibrated());
        let mut pj = 0.0;
        let observed = tr
            .span("energy.observe_run", parent, Some(item), |_| {
                cpu.run_with(CYCLE_LIMIT, |act| pj += model.observe(act).total_pj())
            })
            .expect("observed run");
        assert_eq!(bare, observed, "the energy model must not change the pipeline");
        std::hint::black_box(pj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::check_tree;

    #[test]
    fn traced_campaigns_match_untraced_and_nest_cleanly() {
        let off = Tracer::new(false);
        let dev = setup(MaskPolicy::None, 1, &off, SpanId::NONE).unwrap();
        let jobs = Jobs::new(2).unwrap();
        let cfg = DpaConfig { samples: 4, sbox: 0, bit: 0, seed: 9 };
        let live = Gauge::default();
        let plain = dpa_campaign(&dev, &dev.round1, &cfg, jobs, &off, SpanId::NONE, &live);

        let on = Tracer::new(true);
        let (traced, welch) = on.span("bench.campaign", SpanId::NONE, None, |root| {
            let d = dpa_campaign(&dev, &dev.round1, &cfg, jobs, &on, root, &live);
            let t = tvla_campaign(&dev, &dev.round1, 2, 9, jobs, &on, root, &live);
            (d, t)
        });
        assert_eq!(dpa_csv(&traced, 0), dpa_csv(&plain, 0), "spans must not change the result");
        assert_eq!(welch.group_size, 2);
        assert_eq!(live.peak(), 4, "one live accumulator per DPA shard");

        let spans = on.spans();
        check_tree(&spans).unwrap();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("bench.campaign"), 1);
        assert_eq!(count("par.run_sharded"), 2);
        assert_eq!(count("par.shard"), 4 + 2);
        assert_eq!(count("core.encrypt"), 4 + 2 * 2);
        assert_eq!(count("attack.dpa_push"), 4);
        assert_eq!(count("attack.welch_push"), 2 * 2);
        assert_eq!(count("attack.result"), 2);
        let encrypt_items: std::collections::BTreeSet<u64> =
            spans.iter().filter(|s| s.name == "attack.dpa_push").filter_map(|s| s.item).collect();
        assert_eq!(encrypt_items, (0..4).collect(), "each trial tagged with its index");
    }
}
