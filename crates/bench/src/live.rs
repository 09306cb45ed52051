//! The per-instruction leakage attribution study behind
//! `leakage_profile.csv`: where, instruction by instruction, the energy
//! of the unmasked device varies with the data, and how much of that
//! selective masking removes.
//!
//! The event-emitting campaign drivers ([`dpa_attack`] and [`tvla`]) live
//! in [`experiments`](crate::experiments).
//!
//! [`dpa_attack`]: crate::experiments::dpa_attack
//! [`tvla`]: crate::experiments::tvla

use crate::experiments::{compile, KEY};
use emask_attack::dpa::plaintext_for;
use emask_core::MaskPolicy;
use emask_energy::{LeakageProfile, LeakageProfiler};
use std::fmt;

/// The per-instruction leakage attribution study: unmasked vs
/// selectively masked profiles over the same plaintext stream, plus the
/// combined `leakage_profile.csv` document.
#[derive(Debug, Clone)]
pub struct LeakageComparison {
    /// Profile of the unmasked device.
    pub unmasked: LeakageProfile,
    /// Profile of the selectively masked device.
    pub selective: LeakageProfile,
    /// The combined CSV (header + one rank-ordered block per policy).
    pub csv: String,
}

impl LeakageComparison {
    /// How much of the program-level data-dependent variance selective
    /// masking removed, in percent — the attribution-level restatement of
    /// the paper's claim that masking the key-dependent instructions
    /// silences the DPA channel.
    #[must_use]
    pub fn variance_reduction_percent(&self) -> f64 {
        let u = self.unmasked.total_variance();
        if u == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - self.selective.total_variance() / u)
        }
    }
}

impl fmt::Display for LeakageComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "leakage attribution over {} traces ({} unmasked / {} selective PCs):",
            self.unmasked.traces,
            self.unmasked.rows.len(),
            self.selective.rows.len()
        )?;
        writeln!(f, "  unmasked  total variance: {:>12.3} pJ²", self.unmasked.total_variance())?;
        writeln!(f, "  selective total variance: {:>12.3} pJ²", self.selective.total_variance())?;
        writeln!(f, "  variance reduction      : {:>11.2} %", self.variance_reduction_percent())?;
        write!(f, "top unmasked leakers (pc, phase, variance pJ²):")?;
        for row in self.unmasked.rows.iter().take(5) {
            write!(f, "\n  pc {:>4}  {:<16} {:>12.3}", row.pc, row.phase, row.variance_pj)?;
        }
        Ok(())
    }
}

/// Runs the attribution study: `traces` observed encryptions per policy
/// with plaintexts from the shared `(seed, index)` stream, profiled by a
/// [`LeakageProfiler`] riding the `RunObserver` hooks. The two programs
/// are instruction-identical apart from secure bits, so their per-PC
/// rows compare directly — the CSV concatenates both rankings under one
/// header.
pub fn leakage_attribution(rounds: usize, traces: usize, seed: u64) -> LeakageComparison {
    let mut csv = String::from(LeakageProfile::CSV_HEADER);
    csv.push('\n');
    let run = |policy: MaskPolicy, name: &str, csv: &mut String| -> LeakageProfile {
        let des = compile(policy, rounds);
        let mut prof = LeakageProfiler::new();
        for i in 0..traces {
            des.encrypt_observed(plaintext_for(seed, i as u64), KEY, &mut prof)
                .expect("observed run");
        }
        let profile = prof.profile();
        csv.push_str(&profile.csv_rows(name, &des.program().text));
        profile
    };
    let unmasked = run(MaskPolicy::None, "none", &mut csv);
    let selective = run(MaskPolicy::Selective, "selective", &mut csv);
    LeakageComparison { unmasked, selective, csv }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn leakage_attribution_tells_the_masking_story() {
        let cmp = leakage_attribution(1, 6, 0xACC0);
        // The unmasked device's top instructions carry real variance; the
        // selectively masked device silences (nearly all of) it.
        assert!(cmp.unmasked.total_variance() > 1.0, "{cmp}");
        assert!(
            cmp.variance_reduction_percent() > 90.0,
            "selective masking must remove the bulk of the variance: {cmp}"
        );
        assert_eq!(cmp.unmasked.traces, 6);
        // CSV: one header + one block per policy, labelled.
        let mut lines = cmp.csv.lines();
        assert_eq!(lines.next(), Some(LeakageProfile::CSV_HEADER));
        assert!(cmp.csv.contains(",none,"));
        assert!(cmp.csv.contains(",selective,"));
        let s = cmp.to_string();
        assert!(s.contains("variance reduction"));
    }
}
