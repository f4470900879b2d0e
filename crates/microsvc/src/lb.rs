//! Load balancing across a service's instances.
//!
//! The real TeaStore resolves instances through its registry and client-side
//! round-robin; production meshes add least-outstanding-requests. Both are
//! modeled, plus a locality-aware policy that the topology-aware placement
//! uses to keep calls inside a CCD when a near instance exists.

use crate::ids::InstanceId;
use cputopo::{CpuId, Proximity, Topology};
use serde::{Deserialize, Serialize};

/// Instance selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LbPolicy {
    /// Rotate through instances (TeaStore's registry default).
    #[default]
    RoundRobin,
    /// Pick the instance with the fewest outstanding requests; ties rotate.
    LeastOutstanding,
    /// Least-outstanding with a topology-distance penalty: a nearby busy
    /// instance beats a remote idle one only while its queue advantage
    /// outweighs the distance. Keeps traffic on-die without hotspotting
    /// when near instances are scarce.
    LocalityAware,
}

/// Per-service balancer state.
#[derive(Debug, Clone)]
pub struct Balancer {
    policy: LbPolicy,
    next: usize,
}

/// What the balancer needs to know about a candidate instance.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The instance id.
    pub instance: InstanceId,
    /// Requests currently queued or in flight at the instance.
    pub outstanding: usize,
    /// A CPU representative of where the instance runs (for locality).
    pub home_cpu: CpuId,
    /// Whether the instance may receive traffic. Crashed instances and
    /// instances ejected by an open circuit breaker are marked unavailable;
    /// the balancer routes around them while any available instance exists.
    pub available: bool,
}

impl Candidate {
    /// An available candidate (the common case).
    pub fn new(instance: InstanceId, outstanding: usize, home_cpu: CpuId) -> Self {
        Candidate {
            instance,
            outstanding,
            home_cpu,
            available: true,
        }
    }
}

impl Balancer {
    /// Creates a balancer with the given policy.
    pub fn new(policy: LbPolicy) -> Self {
        Balancer { policy, next: 0 }
    }

    /// The policy in use.
    pub fn policy(&self) -> LbPolicy {
        self.policy
    }

    /// Picks an instance among `candidates` for a caller at `caller_cpu`.
    ///
    /// Unavailable candidates (crashed or breaker-ejected) are excluded
    /// while at least one available instance exists; if *every* candidate
    /// is unavailable the balancer panic-routes across the full set — a
    /// caller that must send somewhere sends to the least-bad choice, like
    /// envoy's panic threshold.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty: a deployed service always has at
    /// least one instance.
    pub fn pick(
        &mut self,
        candidates: &[Candidate],
        caller_cpu: CpuId,
        topo: &Topology,
    ) -> InstanceId {
        assert!(
            !candidates.is_empty(),
            "cannot balance across zero instances"
        );
        if candidates.iter().any(|c| !c.available) {
            let healthy: Vec<Candidate> =
                candidates.iter().filter(|c| c.available).copied().collect();
            if !healthy.is_empty() {
                return self.pick_among(&healthy, caller_cpu, topo);
            }
            // Panic routing: everything is ejected, spread over all of it.
        }
        self.pick_among(candidates, caller_cpu, topo)
    }

    fn pick_among(
        &mut self,
        candidates: &[Candidate],
        caller_cpu: CpuId,
        topo: &Topology,
    ) -> InstanceId {
        match self.policy {
            LbPolicy::RoundRobin => {
                let choice = candidates[self.next % candidates.len()].instance;
                self.next = self.next.wrapping_add(1);
                choice
            }
            LbPolicy::LeastOutstanding => {
                let start = self.next % candidates.len();
                self.next = self.next.wrapping_add(1);
                // Rotate the tie-break start so equal-load instances share.
                let best = (0..candidates.len())
                    .map(|i| &candidates[(start + i) % candidates.len()])
                    .min_by_key(|c| c.outstanding)
                    .expect("non-empty");
                best.instance
            }
            LbPolicy::LocalityAware => {
                // Distance expressed in "queued requests worth of cost":
                // crossing a socket must be worth ~8 queue slots to be
                // chosen over a local instance.
                let penalty = |p: Proximity| -> f64 {
                    match p {
                        Proximity::SameCpu | Proximity::SmtSibling | Proximity::SameCcx => 0.0,
                        Proximity::SameCcd => 1.5,
                        Proximity::SameNuma | Proximity::SameSocket => 4.0,
                        Proximity::CrossSocket => 8.0,
                    }
                };
                let start = self.next % candidates.len();
                self.next = self.next.wrapping_add(1);
                let best = (0..candidates.len())
                    .map(|i| &candidates[(start + i) % candidates.len()])
                    .min_by(|a, b| {
                        let score = |c: &&Candidate| {
                            c.outstanding as f64 + penalty(topo.proximity(caller_cpu, c.home_cpu))
                        };
                        score(a).partial_cmp(&score(b)).expect("finite scores")
                    })
                    .expect("non-empty");
                best.instance
            }
        }
    }

    /// Serializes the rotation cursor (the policy is configuration).
    pub(crate) fn snap_save(&self, w: &mut simcore::SnapWriter) {
        let Self {
            policy: _, // config, rebuilt from params
            next,
        } = self;
        w.usize(*next);
    }

    pub(crate) fn snap_restore(
        &mut self,
        r: &mut simcore::SnapReader<'_>,
    ) -> Result<(), simcore::SnapError> {
        let Self {
            policy: _, // config, rebuilt from params
            next,
        } = self;
        *next = r.usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(outstanding: &[usize]) -> Vec<Candidate> {
        outstanding
            .iter()
            .enumerate()
            .map(|(i, &o)| Candidate::new(InstanceId(i as u32), o, CpuId(i as u32)))
            .collect()
    }

    #[test]
    fn round_robin_rotates() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::RoundRobin);
        let c = candidates(&[0, 0, 0]);
        let picks: Vec<u32> = (0..6).map(|_| b.pick(&c, CpuId(0), &topo).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_prefers_idle() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::LeastOutstanding);
        let c = candidates(&[5, 1, 9]);
        assert_eq!(b.pick(&c, CpuId(0), &topo), InstanceId(1));
    }

    #[test]
    fn least_outstanding_shares_ties() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::LeastOutstanding);
        let c = candidates(&[0, 0]);
        let first = b.pick(&c, CpuId(0), &topo);
        let second = b.pick(&c, CpuId(0), &topo);
        assert_ne!(
            first, second,
            "ties must rotate, not pile onto one instance"
        );
    }

    #[test]
    fn locality_prefers_near_instance_when_queues_are_close() {
        let topo = Topology::desktop_8c(); // 2 CCXs: cpus 0-3+8-11, 4-7+12-15
        let mut b = Balancer::new(LbPolicy::LocalityAware);
        let c = vec![
            // Slightly busier but near vs. idle but across the CCX boundary.
            Candidate::new(InstanceId(0), 1, CpuId(1)),
            Candidate::new(InstanceId(1), 0, CpuId(4)),
        ];
        assert_eq!(b.pick(&c, CpuId(0), &topo), InstanceId(0));
    }

    #[test]
    fn locality_spills_to_remote_when_near_is_swamped() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::LocalityAware);
        let c = vec![
            Candidate::new(InstanceId(0), 30, CpuId(1)), // hotspot
            Candidate::new(InstanceId(1), 0, CpuId(4)),
        ];
        assert_eq!(b.pick(&c, CpuId(0), &topo), InstanceId(1));
    }

    #[test]
    fn locality_breaks_ties_by_load() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::LocalityAware);
        let c = vec![
            Candidate::new(InstanceId(0), 4, CpuId(1)),
            Candidate::new(InstanceId(1), 1, CpuId(2)),
        ];
        assert_eq!(b.pick(&c, CpuId(0), &topo), InstanceId(1));
    }

    #[test]
    fn unavailable_instances_are_skipped() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::RoundRobin);
        let mut c = candidates(&[0, 0, 0]);
        c[1].available = false;
        let picks: Vec<u32> = (0..4).map(|_| b.pick(&c, CpuId(0), &topo).0).collect();
        assert!(
            !picks.contains(&1),
            "ejected instance must receive no traffic: {picks:?}"
        );
        assert!(picks.contains(&0) && picks.contains(&2));
    }

    #[test]
    fn least_outstanding_ignores_idle_but_ejected() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::LeastOutstanding);
        let mut c = candidates(&[7, 0, 9]);
        c[1].available = false;
        assert_eq!(b.pick(&c, CpuId(0), &topo), InstanceId(0));
    }

    #[test]
    fn panic_routing_when_everything_is_ejected() {
        let topo = Topology::desktop_8c();
        let mut b = Balancer::new(LbPolicy::RoundRobin);
        let mut c = candidates(&[0, 0]);
        for cand in &mut c {
            cand.available = false;
        }
        // With no healthy instance the balancer must still pick something.
        let first = b.pick(&c, CpuId(0), &topo);
        let second = b.pick(&c, CpuId(0), &topo);
        assert_ne!(first, second, "panic routing still rotates");
    }

    #[test]
    #[should_panic(expected = "zero instances")]
    fn empty_candidates_panics() {
        let topo = Topology::desktop_8c();
        Balancer::new(LbPolicy::RoundRobin).pick(&[], CpuId(0), &topo);
    }
}
