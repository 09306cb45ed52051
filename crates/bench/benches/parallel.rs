//! Parallel-engine benchmarks: serial vs sharded trace acquisition against
//! the real reduced-round simulator, and the batch (matrix-in-memory) vs
//! online (single-pass accumulator) DPA statistics engines over the same
//! synthetic trace set. The acquisition pair is what `BENCH_parallel.json`
//! records: identical results, divergent wall time.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use emask_attack::dpa::{
    analyze_bit, collect_traces_par, recover_subkey_par, selection_bit, DpaConfig,
};
use emask_attack::online::OnlineDpa;
use emask_core::desgen::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes, Phase};
use emask_des::KeySchedule;
use emask_par::Jobs;
use std::hint::black_box;

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const SEED: u64 = 0x000B_E9C4;

/// A cheap synthetic oracle with the true round-1 leak embedded, for the
/// engine benches (attack cost isolated from simulator cost).
fn synthetic_oracle(p: u64) -> Vec<f64> {
    let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    let b = selection_bit(p, subkey, 0, 0);
    let mut t = vec![160.0; 256];
    t[100] += if b { 5.0 } else { 0.0 };
    t[7] += (p % 13) as f64;
    t
}

/// Serial vs `--jobs 4` acquisition of 64 round-1 windows from the real
/// unmasked 1-round simulator — the tentpole speedup measurement.
fn bench_acquisition(c: &mut Criterion) {
    let des = MaskedDes::compile_spec(MaskPolicy::None, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round device");
    let window =
        des.encrypt(0, KEY).expect("probe run").phase_window(Phase::Round(1)).expect("round 1");
    let oracle = des.trace_oracle(KEY, window);
    let mut g = c.benchmark_group("acquire");
    g.sample_size(10);
    g.throughput(Throughput::Elements(64));
    g.bench_function("serial_64_traces", |b| {
        b.iter(|| collect_traces_par(black_box(&oracle), 64, SEED, Jobs::serial()))
    });
    if let Some(jobs) = Jobs::new(4) {
        g.bench_function("jobs4_64_traces", |b| {
            b.iter(|| collect_traces_par(black_box(&oracle), 64, SEED, jobs))
        });
    }
    g.finish();
}

/// Batch two-pass matrix DPA vs the single-pass online accumulator over
/// an identical 256-trace synthetic set.
fn bench_dpa_engines(c: &mut Criterion) {
    let (plaintexts, traces) = collect_traces_par(&synthetic_oracle, 256, 7, Jobs::serial());
    let mut g = c.benchmark_group("dpa_engine");
    g.throughput(Throughput::Elements(64 * 256));
    g.bench_function("batch_analyze_256x256", |b| {
        b.iter(|| analyze_bit(black_box(&plaintexts), black_box(&traces), 0, 0))
    });
    g.bench_function("online_analyze_256x256", |b| {
        b.iter(|| {
            let mut acc = OnlineDpa::single(0, 0);
            for (p, t) in plaintexts.iter().zip(&traces) {
                acc.push(black_box(*p), black_box(t)).expect("aligned traces");
            }
            acc.result()
        })
    });
    g.bench_function("online_end_to_end_256", |b| {
        let cfg = DpaConfig { samples: 256, sbox: 0, bit: 0, seed: 7 };
        b.iter(|| recover_subkey_par(black_box(&synthetic_oracle), &cfg, Jobs::serial()))
    });
    g.finish();
}

criterion_group!(benches, bench_acquisition, bench_dpa_engines);
criterion_main!(benches);
