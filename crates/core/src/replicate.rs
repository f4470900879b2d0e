//! Replicated runs: many seeds, summary statistics, in parallel.
//!
//! A single deterministic run is reproducible but still one draw from the
//! workload's random space. Publication-grade numbers need replication:
//! [`run_seeds`] executes the same configuration under several seeds on the
//! work-stealing sweep pool ([`crate::par`] — each simulation is
//! single-threaded and independent, the embarrassing kind of parallel) and
//! [`Summary`] reduces any metric to mean ± sample standard deviation with
//! a 95% normal-approximation confidence half-width.

use crate::lab::Lab;
use crate::placement::Policy;
use microsvc::RunReport;
use serde::{Deserialize, Serialize};
use teastore::TeaStore;

/// Mean and spread of one metric over replicated runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of replications.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1), 0 for a single run.
    pub stddev: f64,
    /// 95% confidence half-width under the normal approximation
    /// (`1.96·s/√n`), 0 for a single run.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize zero runs");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            1.96 * stddev / (n as f64).sqrt()
        };
        Summary {
            n,
            mean,
            stddev,
            ci95,
        }
    }

    /// Renders as `mean ± ci95`.
    pub fn display(&self, unit: &str) -> String {
        if self.n < 2 {
            format!("{:.1}{unit}", self.mean)
        } else {
            format!("{:.1} ± {:.1}{unit}", self.mean, self.ci95)
        }
    }
}

/// Runs `(store, policy, replicas)` under every seed, in parallel, returning
/// the reports in seed order.
///
/// # Panics
///
/// Panics if `seeds` is empty, or propagates a panic from a failed run.
pub fn run_seeds(
    lab: &Lab,
    store: &TeaStore,
    policy: Policy,
    replicas: &[usize],
    seeds: &[u64],
) -> Vec<RunReport> {
    assert!(!seeds.is_empty(), "need at least one seed");
    crate::par::map(seeds.to_vec(), |seed| {
        lab.clone()
            .with_seed(seed)
            .run_policy(store, policy, replicas)
    })
}

/// Convenience: replicated throughput summary for a configuration.
pub fn throughput_summary(
    lab: &Lab,
    store: &TeaStore,
    policy: Policy,
    replicas: &[usize],
    seeds: &[u64],
) -> Summary {
    let reports = run_seeds(lab, store, policy, replicas, seeds);
    let values: Vec<f64> = reports.iter().map(|r| r.throughput_rps).collect();
    Summary::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner;

    #[test]
    fn summary_math() {
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * 2.0 / 3.0f64.sqrt()).abs() < 1e-9);
        assert!(s.display("rps").contains('±'));
        let single = Summary::of(&[5.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.display(""), "5.0");
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_summary_rejected() {
        Summary::of(&[]);
    }

    #[test]
    fn replicated_runs_differ_by_seed_but_agree_on_shape() {
        let lab = Lab::small(0).with_users(32);
        let store = TeaStore::with_demand_scale(0.25);
        let replicas = tuner::proportional_replicas(store.app(), 8);
        let reports = run_seeds(&lab, &store, Policy::Unpinned, &replicas, &[1, 2, 3]);
        assert_eq!(reports.len(), 3);
        let values: Vec<f64> = reports.iter().map(|r| r.throughput_rps).collect();
        assert!(values.iter().all(|&v| v > 0.0));
        // Different seeds give different (but close) results.
        assert!(values[0] != values[1] || values[1] != values[2]);
        let summary = Summary::of(&values);
        assert!(
            summary.stddev / summary.mean < 0.15,
            "replication noise should be modest: {summary:?}"
        );
    }

    #[test]
    fn same_seed_replications_are_identical() {
        let lab = Lab::small(0).with_users(16);
        let store = TeaStore::with_demand_scale(0.25);
        let replicas = tuner::proportional_replicas(store.app(), 8);
        let reports = run_seeds(&lab, &store, Policy::Unpinned, &replicas, &[7, 7]);
        assert_eq!(reports[0].completed, reports[1].completed);
        assert_eq!(reports[0].mean_latency, reports[1].mean_latency);
    }
}
