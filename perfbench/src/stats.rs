//! Order statistics and result digests.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks (rank `p/100 × (n−1)` in the sorted sample), the
/// definition NumPy and most plotting tools use by default. `None` for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// 64-bit FNV-1a over `bytes`: the digest that stands in for a result
/// CSV when checking that repeated runs produce identical output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64: the generator every workload derives its inputs from.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(11.0));
        assert_eq!(percentile(&v, 90.0), Some(10.0));
        assert_eq!(percentile(&[0.0, 10.0], 25.0), Some(2.5));
        // Input order does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), percentile(&v, 90.0));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"guess,peak\n0,1.5\n"), fnv1a(b"guess,peak\n0,1.25\n"));
    }
}
