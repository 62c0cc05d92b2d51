//! Simulation statistics: latency percentiles, utilization, queue depths,
//! and energy per request. Everything is serde-serializable so the bench
//! binaries can dump raw reports next to their tables.

use serde::{Deserialize, Serialize};

/// Summary statistics over a set of per-request latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, in milliseconds.
    pub mean_ms: f64,
    /// Median (50th percentile), in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, in milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, in milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// An all-zero record for an empty sample set.
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// Computes the summary from latency samples in seconds.
    pub fn from_samples_s(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self::from_sorted_s(&sorted)
    }

    /// The summary of samples in seconds already in ascending
    /// [`f64::total_cmp`] order. The mean sums them in that order.
    fn from_sorted_s(sorted: &[f64]) -> Self {
        let Some(&max) = sorted.last() else {
            return Self::empty();
        };
        let to_ms = 1e3;
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            count: sorted.len() as u64,
            mean_ms: mean * to_ms,
            p50_ms: percentile(sorted, 0.50) * to_ms,
            p95_ms: percentile(sorted, 0.95) * to_ms,
            p99_ms: percentile(sorted, 0.99) * to_ms,
            max_ms: max * to_ms,
        }
    }
}

/// Exact latency summaries of a run: one per model, then the fleet-wide
/// one over every sample. Each model's samples are sorted in place, and the
/// fleet-wide order is merged from those sorted runs. Every summary equals
/// [`LatencyStats::from_samples_s`] of the same samples bit for bit: a
/// sequence sorted by `total_cmp` is unique bit for bit (only equal bit
/// patterns compare equal), whatever order the samples came in and whether
/// the sort is stable, and the mean sums it in that order.
pub(crate) fn exact_latency_stats(per_model: &mut [Vec<f64>]) -> (Vec<LatencyStats>, LatencyStats) {
    let mut all = Vec::with_capacity(per_model.iter().map(Vec::len).sum());
    let stats = per_model
        .iter_mut()
        .map(|samples| {
            samples.sort_unstable_by(f64::total_cmp);
            all.extend_from_slice(samples);
            LatencyStats::from_sorted_s(samples)
        })
        .collect();
    // A concatenation of sorted runs: the stable sort only merges them.
    all.sort_by(f64::total_cmp);
    (stats, LatencyStats::from_sorted_s(&all))
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let product = q * sorted.len() as f64;
    // Nearest-rank is ceil(q * n), but binary floating point can push an
    // exactly-integral product infinitesimally high (0.55 * 20 =
    // 11.000000000000002), which would overshoot the rank by one. Snap to
    // the nearest integer when the product is within one part in 10^12 of
    // it; otherwise take the true ceiling.
    let nearest = product.round();
    let rank = if (product - nearest).abs() <= product.abs() * 1e-12 + 1e-12 {
        nearest as usize
    } else {
        product.ceil() as usize
    };
    // Rank 0 reads the first sample, a rank past the end the last.
    let index = rank.min(sorted.len()).saturating_sub(1);
    sorted.get(index).copied().unwrap_or_default()
}

/// Per-model outcome of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Requests that arrived for this model.
    pub offered: u64,
    /// Requests completed within the simulated horizon.
    pub completed: u64,
    /// Latency summary over completed requests.
    pub latency: LatencyStats,
    /// Mean energy per completed request, in millijoules.
    pub energy_mj_per_request: f64,
}

/// Per-chip outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipStats {
    /// Fraction of the simulated horizon the chip's pipeline was occupied
    /// (issue-slot occupancy: initiation intervals of issued requests over
    /// total time).
    pub utilization: f64,
    /// Requests issued into this chip's pipeline.
    pub issued: u64,
    /// Total energy dissipated by this chip, in millijoules.
    pub energy_mj: f64,
}

/// The full result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated horizon, in seconds.
    pub duration_s: f64,
    /// Total requests that arrived.
    pub offered: u64,
    /// Total requests completed within the horizon.
    pub completed: u64,
    /// Requests still queued or in flight when the horizon ended (shed
    /// requests are counted separately, not as backlog).
    pub backlog: u64,
    /// Requests dropped by the scenario's admission cap
    /// ([`Scenario::admission_cap`](crate::faults::Scenario)); 0 without
    /// admission control.
    pub shed: u64,
    /// Completed requests per second of simulated time.
    pub throughput_rps: f64,
    /// Latency summary over all completed requests.
    pub latency: LatencyStats,
    /// Per-model breakdown, in fleet model order.
    pub per_model: Vec<ModelStats>,
    /// Per-chip breakdown, in chip-index order.
    pub chips: Vec<ChipStats>,
    /// Time-weighted mean number of queued (not yet issued) requests across
    /// the fleet.
    pub mean_queue_depth: f64,
    /// Largest instantaneous queued-request count observed.
    pub max_queue_depth: u64,
    /// Chip outage windows that began within the horizon.
    pub outages: u64,
    /// Straggler (slowdown) windows that began within the horizon.
    pub stragglers: u64,
    /// Fault windows that ended (chip recovered) within the horizon.
    pub recoveries: u64,
    /// Total energy across the fleet, in millijoules.
    pub total_energy_mj: f64,
    /// Mean energy per completed request, in millijoules.
    pub energy_mj_per_request: f64,
}

impl SimReport {
    /// Mean utilization across all chips.
    pub fn mean_utilization(&self) -> f64 {
        if self.chips.is_empty() {
            return 0.0;
        }
        self.chips.iter().map(|c| c.utilization).sum::<f64>() / self.chips.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_sample_set() {
        // 1..=100 ms in seconds: p50 = 50 ms, p95 = 95 ms, p99 = 99 ms.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let stats = LatencyStats::from_samples_s(&samples);
        assert_eq!(stats.count, 100);
        assert!((stats.p50_ms - 50.0).abs() < 1e-9);
        assert!((stats.p95_ms - 95.0).abs() < 1e-9);
        assert!((stats.p99_ms - 99.0).abs() < 1e-9);
        assert!((stats.max_ms - 100.0).abs() < 1e-9);
        assert!((stats.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let stats = LatencyStats::from_samples_s(&[0.002]);
        assert_eq!(stats.count, 1);
        for v in [stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.max_ms] {
            assert!((v - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_samples_produce_the_empty_record() {
        assert_eq!(LatencyStats::from_samples_s(&[]), LatencyStats::empty());
    }

    #[test]
    fn exactly_integral_ranks_do_not_overshoot() {
        // 0.55 * 20 lands on rank 11 exactly, but the f64 product is
        // 11.000000000000002; a bare ceil() would overshoot to rank 12.
        let samples: Vec<f64> = (1..=20).map(|i| i as f64 * 1e-3).collect();
        assert!((percentile(&samples, 0.55) - 0.011).abs() < 1e-12);
        // The golden-pinned quantiles stay on their nearest-rank values.
        assert!((percentile(&samples, 0.50) - 0.010).abs() < 1e-12);
        assert!((percentile(&samples, 0.95) - 0.019).abs() < 1e-12);
        // Non-integral products still take the true ceiling: 0.99 * 20 =
        // 19.8 -> rank 20.
        assert!((percentile(&samples, 0.99) - 0.020).abs() < 1e-12);
    }

    #[test]
    fn all_equal_samples_report_that_value_everywhere() {
        let stats = LatencyStats::from_samples_s(&[0.004; 37]);
        assert_eq!(stats.count, 37);
        for v in [
            stats.mean_ms,
            stats.p50_ms,
            stats.p95_ms,
            stats.p99_ms,
            stats.max_ms,
        ] {
            assert!((v - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_stats_equal_copy_and_sort_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bits = |s: &LatencyStats| {
            let floats = [s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms];
            (s.count, floats.map(f64::to_bits))
        };
        let mut rng = StdRng::seed_from_u64(29);
        // Draws from few distinct values, so every set has ties (within a
        // model and across models).
        let mut samples = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| f64::from(rng.gen_range(1u32..40)) * 1.7e-4)
                .collect()
        };
        let cases: Vec<Vec<Vec<f64>>> = vec![
            vec![],
            vec![vec![]],
            vec![samples(1)],
            vec![samples(500)],
            vec![samples(300), vec![], samples(1), samples(211)],
            vec![samples(64), samples(64), samples(64)],
        ];
        for mut per_model in cases {
            // The copy-and-sort report: each model's samples, then their
            // unsorted concatenation, each through `from_samples_s`.
            let expected: Vec<_> = per_model
                .iter()
                .map(|s| bits(&LatencyStats::from_samples_s(s)))
                .collect();
            let fleet = bits(&LatencyStats::from_samples_s(&per_model.concat()));
            let (stats, merged) = exact_latency_stats(&mut per_model);
            assert_eq!(stats.iter().map(bits).collect::<Vec<_>>(), expected);
            assert_eq!(bits(&merged), fleet);
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let samples: Vec<f64> = (0..997)
            .map(|i| ((i * 7919) % 1000) as f64 * 1e-4)
            .collect();
        let stats = LatencyStats::from_samples_s(&samples);
        assert!(stats.p50_ms <= stats.p95_ms);
        assert!(stats.p95_ms <= stats.p99_ms);
        assert!(stats.p99_ms <= stats.max_ms);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = SimReport {
            duration_s: 1.0,
            offered: 10,
            completed: 9,
            backlog: 1,
            shed: 0,
            throughput_rps: 9.0,
            latency: LatencyStats::from_samples_s(&[0.001, 0.002]),
            per_model: vec![ModelStats {
                name: "VGG-D".to_string(),
                offered: 10,
                completed: 9,
                latency: LatencyStats::from_samples_s(&[0.001]),
                energy_mj_per_request: 3.5,
            }],
            chips: vec![ChipStats {
                utilization: 0.5,
                issued: 9,
                energy_mj: 31.5,
            }],
            mean_queue_depth: 0.4,
            max_queue_depth: 3,
            outages: 1,
            stragglers: 0,
            recoveries: 1,
            total_energy_mj: 31.5,
            energy_mj_per_request: 3.5,
        };
        let text = serde::json::to_string(&report);
        let back: SimReport = serde::json::from_str(&text).expect("round trip");
        assert_eq!(back, report);
        assert!((report.mean_utilization() - 0.5).abs() < 1e-12);
    }
}
