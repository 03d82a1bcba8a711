//! The benchmark's own statistics: percentiles over timing samples, and the
//! stage-sum arithmetic that attributes a monolithic apply to its stages.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`, linearly
/// interpolated between the two nearest ranks (NumPy's default method), so
/// the 50th percentile of an even-length sample is the mean of the middle
/// two. Returns NaN for an empty sample, which the report counts as a
/// failure.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The part of a monolithic apply's median that the stage medians do not
/// account for: `whole − Σ stages`. Positive values are dispatch overhead
/// between stages; negative values are overlap the fused graph wins by
/// running stages concurrently.
pub fn unattributed(whole: f64, stages: &[f64]) -> f64 {
    whole - stages.iter().sum::<f64>()
}

/// A layer's self time: the length of `span` minus the part of it that the
/// `children` intervals cover (overlapping children are counted once).
/// Intervals are `(start, end)` pairs in any common unit.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (span.1 - span.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        // rank = 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3).
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_matches_numpy_on_odd_sample() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&xs), 6.0);
        // numpy.percentile(range(1, 12), 99) == 10.9
        assert!((percentile(&xs, 99.0) - 10.9).abs() < 1e-12);
    }

    #[test]
    fn unattributed_is_whole_minus_stage_sum() {
        assert!((unattributed(10.0, &[2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
        // Fused overlap: the stages sum to more than the whole.
        assert!((unattributed(8.0, &[2.0, 3.0, 4.0]) + 1.0).abs() < 1e-12);
        // Stage medians plus the unattributed part give back the whole.
        let stages = [1.25, 0.5, 3.0];
        assert_eq!(unattributed(6.0, &stages) + stages.iter().sum::<f64>(), 6.0);
    }

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once; parts outside the span are clipped.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]), 5.0);
        assert_eq!(self_time((0.0, 10.0), &[(-1.0, 11.0)]), 0.0);
    }
}
