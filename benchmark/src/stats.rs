//! Order statistics the benchmark reports: percentiles, medians and
//! quartiles. Everything quoted by this package is one of these — never a
//! mean and never a maximum, because on a shared two-core sandbox a single
//! stall moves both.

/// The `p`-quantile (`0.0 ..= 1.0`) of `values` by the nearest-rank rule:
/// the smallest sample with at least `p · len` samples at or below it.
/// `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`, averaging the two middle samples of an even
/// count (so the median of eight slices sits between the 4th and 5th).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The least-squares slope of `y` over `x` through `points`: how much `y`
/// grows per unit of `x`. Resident memory grows in steps (an arena extended,
/// a vector doubled), so the difference of two readings is off by up to a
/// step at either end; a line through many readings is not. `0.0` for fewer
/// than two distinct `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, which is how
/// the acceptance check computes spreads. Needs two samples; a single one
/// is returned three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let at = |quarter: usize| {
        // Position quarter·(n + 1)/4 on a 1-based axis, interpolated and
        // clamped to the sample range.
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median: the spread the acceptance
/// check holds against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One slice of the measure window.
#[derive(Clone, Debug, PartialEq)]
pub struct Slice {
    /// When the slice starts on the driver clock.
    pub start_ns: u64,
    /// Nanoseconds the slice spans.
    pub span_ns: u64,
    /// Values of the samples that completed in it.
    pub values: Vec<f64>,
}

/// Cuts a measure window into slices and hands back, per slice, its length
/// and the samples that completed in it. `events` are `(completion time,
/// value)` pairs on the driver clock.
///
/// The nominal cuts are `start + i · slice_ns`; each is then moved to the
/// first completion at or after it. A slice's count and its length thus
/// describe the same interval, whatever the phase between the cuts and a
/// periodic load: a rate computed from them is not quantised to whole
/// batches per nominal slice, and the moved cuts still tile the timeline, so
/// a stall is charged in full to the slice it happened in.
pub fn by_slice(events: &[(u64, f64)], start: u64, slice_ns: u64, slices: usize) -> Vec<Slice> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|&(at, _)| at);
    // Per cut: the index of the first completion at or after the nominal
    // cut, and that completion's instant (the nominal cut if there is none).
    let cuts: Vec<(usize, u64)> = (0..=slices as u64)
        .map(|i| {
            let nominal = start + i * slice_ns;
            let index = sorted.partition_point(|&(at, _)| at < nominal);
            (index, sorted.get(index).map_or(nominal, |&(at, _)| at))
        })
        .collect();
    cuts.windows(2)
        .map(|cut| Slice {
            start_ns: cut[0].1,
            span_ns: cut[1].1 - cut[0].1,
            values: sorted[cut[0].0..cut[1].0]
                .iter()
                .map(|&(_, value)| value)
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), 50.0);
        assert_eq!(percentile(&values, 0.95), 95.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        // Unsorted input, odd count.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn slope_sees_through_steps() {
        // A staircase that rises 8 every 4 units of x grows 2 per unit; two
        // readings taken just before and just after a step say 0.5 and 3.5.
        let stairs: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, (i / 4 * 8) as f64)).collect();
        assert!((slope(&stairs) - 2.0).abs() < 0.05);
        assert_eq!(slope(&[(3.0, 1.0), (7.0, 9.0)]), 2.0);
        assert_eq!(slope(&[(3.0, 1.0), (3.0, 9.0)]), 0.0);
        assert_eq!(slope(&[]), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_disturbed_slice() {
        // Seven quiet slices and one that a noisy neighbour halved: the
        // mean moves by 6 %, the median not at all.
        let slices = [100.0, 101.0, 99.0, 50.0, 100.0, 102.0, 98.0, 100.0];
        assert_eq!(median(&slices), 100.0);
        let mean = slices.iter().sum::<f64>() / slices.len() as f64;
        assert!(mean < 94.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((relative_spread(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slices_are_cut_at_the_first_completion_past_each_nominal_cut() {
        let events = [
            (5, 1.0),  // before the window
            (12, 2.0), // first completion at or after the cut at 10
            (19, 3.0),
            (23, 4.0), // first completion at or after the cut at 20
            (31, 5.0), // first completion at or after the cut at 30: ends slice 1
            (45, 6.0), // past the window
        ];
        let slices = by_slice(&events, 10, 10, 2);
        assert_eq!(
            slices[0],
            Slice {
                start_ns: 12,
                span_ns: 11,
                values: vec![2.0, 3.0]
            }
        );
        assert_eq!(
            slices[1],
            Slice {
                start_ns: 23,
                span_ns: 8,
                values: vec![4.0]
            }
        );
        // The cuts tile the timeline: no instant between first and last cut
        // is outside every slice.
        assert_eq!(slices.iter().map(|s| s.span_ns).sum::<u64>(), 31 - 12);
    }

    #[test]
    fn a_periodic_load_reads_its_true_rate_whatever_the_phase() {
        // One completion every 20 time units, nominal slices of 3 000 that
        // start at an arbitrary phase: every slice holds 150 completions
        // over exactly 3 000 units, never 149 or 151 over a nominal 3 000.
        for phase in [0, 7, 19] {
            let events: Vec<(u64, f64)> = (0..1000).map(|i| (phase + i * 20, 0.0)).collect();
            for slice in by_slice(&events, 1003, 3000, 4) {
                assert_eq!((slice.values.len(), slice.span_ns), (150, 3000));
            }
        }
    }

    #[test]
    fn an_empty_window_keeps_its_nominal_cuts() {
        let slices = by_slice(&[], 10, 10, 2);
        assert!(slices
            .iter()
            .all(|s| s.span_ns == 10 && s.values.is_empty()));
    }
}
