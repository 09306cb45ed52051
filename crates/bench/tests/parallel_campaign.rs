//! End-to-end determinism of the parallel execution layer: the fault
//! campaign and the attack campaigns must produce byte-identical reports
//! for any `--jobs` count.

use emask_bench::campaign::{run_campaign, CampaignConfig, CampaignReport};
use emask_bench::experiments::{dpa_attack, tvla_par, DpaOutcome};
use emask_core::desgen::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes};
use emask_par::{CancelToken, Jobs};
use emask_telemetry::NullSink;

fn device() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round selective device")
}

fn fault(des: &MaskedDes, cfg: &CampaignConfig, jobs: Jobs) -> CampaignReport {
    run_campaign(des, cfg, jobs, None, &CancelToken::new(), &NullSink).expect("fault campaign")
}

fn dpa(jobs: Jobs) -> DpaOutcome {
    dpa_attack(MaskPolicy::None, 1, 64, 0, jobs, 0, &CancelToken::new(), &NullSink)
        .expect("dpa campaign")
}

#[test]
fn fault_campaign_is_byte_identical_for_jobs_1_4_and_7() {
    let des = device();
    let cfg = CampaignConfig { trials: 60, ..CampaignConfig::default() };
    let serial = fault(&des, &cfg, Jobs::serial());
    for jobs in [4, 7] {
        let par = fault(&des, &cfg, Jobs::new(jobs).unwrap());
        assert_eq!(par.csv(), serial.csv(), "jobs={jobs} changed the trial rows");
        assert_eq!(par.counts, serial.counts, "jobs={jobs} changed the outcome counts");
        assert_eq!(par.clean_cycles, serial.clean_cycles);
    }
}

#[test]
fn dpa_experiment_peaks_are_bit_identical_across_job_counts() {
    let serial = dpa(Jobs::serial());
    for jobs in [4, 7] {
        let par = dpa(Jobs::new(jobs).unwrap());
        assert_eq!(par.result.best_guess, serial.result.best_guess);
        for (a, b) in par.result.peaks.iter().zip(&serial.result.peaks) {
            assert_eq!(a.to_bits(), b.to_bits(), "jobs={jobs} perturbed a peak");
        }
    }
}

#[test]
fn tvla_experiment_t_statistic_is_bit_identical_across_job_counts() {
    let serial = tvla_par(MaskPolicy::None, 1, 8, 3, Jobs::serial());
    let par = tvla_par(MaskPolicy::None, 1, 8, 3, Jobs::new(5).unwrap());
    assert_eq!(par.max_t.to_bits(), serial.max_t.to_bits());
    assert_eq!(par.leaky_cycles, serial.leaky_cycles);
}
