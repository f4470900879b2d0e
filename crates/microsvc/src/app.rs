//! Application descriptions: services, demands, and request-class call trees.

use crate::ids::{RequestClassId, ServiceId};
use serde::{Deserialize, Serialize};
use simcore::dist::{Distribution, LogNormal};
use simcore::Rng;
use uarch::ServiceProfile;

/// CPU demand of one processing step, in microseconds of *reference* CPU
/// time (alone, warm, local memory).
///
/// Samples are log-normal with the given coefficient of variation, matching
/// the right-skew of measured service times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Mean demand, µs of reference CPU time.
    pub mean_us: f64,
    /// Coefficient of variation of the demand (0 = deterministic).
    pub cv: f64,
}

impl Demand {
    /// A zero demand (no CPU work in this step).
    pub const ZERO: Demand = Demand {
        mean_us: 0.0,
        cv: 0.0,
    };

    /// A deterministic demand of `mean_us` microseconds.
    pub fn fixed_us(mean_us: f64) -> Demand {
        Demand { mean_us, cv: 0.0 }
    }

    /// A log-normal demand with mean `mean_us` and coefficient of variation `cv`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_us` is negative or `cv` is negative.
    pub fn lognormal_us(mean_us: f64, cv: f64) -> Demand {
        assert!(mean_us >= 0.0, "demand mean must be non-negative");
        assert!(cv >= 0.0, "demand cv must be non-negative");
        Demand { mean_us, cv }
    }

    /// Draws one demand sample, in microseconds.
    pub fn sample_us(&self, rng: &mut Rng) -> f64 {
        if self.mean_us <= 0.0 {
            0.0
        } else if self.cv <= 0.0 {
            self.mean_us
        } else {
            LogNormal::from_mean_cv(self.mean_us, self.cv).sample(rng)
        }
    }

    /// This demand with its log-normal parameters resolved once, for hot
    /// loops that draw from the same demand many times.
    ///
    /// # Panics
    ///
    /// Panics if a log-normal demand (positive mean and cv) has a
    /// non-finite mean or cv.
    pub(crate) fn sampler(&self) -> DemandSampler {
        if self.mean_us <= 0.0 {
            DemandSampler::Fixed(0.0)
        } else if self.cv <= 0.0 {
            DemandSampler::Fixed(self.mean_us)
        } else {
            DemandSampler::LogNormal(LogNormal::from_mean_cv(self.mean_us, self.cv))
        }
    }

    /// Scales the mean by `factor` (used by what-if experiments).
    pub fn scaled(&self, factor: f64) -> Demand {
        Demand {
            mean_us: self.mean_us * factor,
            cv: self.cv,
        }
    }
}

/// A [`Demand`] ready to draw from: [`DemandSampler::sample_us`] returns
/// bit for bit what [`Demand::sample_us`] would, from the same random
/// stream, without re-deriving the log-normal's parameters per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DemandSampler {
    /// Always this many microseconds (zero and deterministic demands).
    Fixed(f64),
    /// A log-normal draw.
    LogNormal(LogNormal),
}

impl DemandSampler {
    /// Draws one demand sample, in microseconds.
    #[inline]
    pub fn sample_us(&self, rng: &mut Rng) -> f64 {
        match self {
            DemandSampler::Fixed(us) => *us,
            DemandSampler::LogNormal(d) => d.sample(rng),
        }
    }
}

/// A stage of downstream calls: every child is issued concurrently, and the
/// stage completes when all replies are in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallStage {
    /// Calls issued in parallel.
    pub parallel: Vec<CallNode>,
}

/// One node of a request-class call tree: CPU work at a service, then a
/// sequence of call stages, then closing CPU work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallNode {
    /// The service that executes this node.
    pub service: ServiceId,
    /// CPU demand before any downstream calls (parsing, business logic).
    pub pre: Demand,
    /// Downstream call stages, executed in order.
    pub stages: Vec<CallStage>,
    /// CPU demand after the last stage (rendering the response).
    pub post: Demand,
}

impl CallNode {
    /// A leaf node: CPU work only, no downstream calls.
    pub fn leaf(service: ServiceId, demand: Demand) -> CallNode {
        CallNode {
            service,
            pre: demand,
            stages: Vec::new(),
            post: Demand::ZERO,
        }
    }

    /// A node with work, stages and closing work.
    pub fn new(service: ServiceId, pre: Demand, stages: Vec<CallStage>, post: Demand) -> CallNode {
        CallNode {
            service,
            pre,
            stages,
            post,
        }
    }

    /// Total number of nodes in this subtree (including self).
    pub fn node_count(&self) -> usize {
        1 + self
            .stages
            .iter()
            .flat_map(|s| &s.parallel)
            .map(CallNode::node_count)
            .sum::<usize>()
    }

    /// Sum of mean demands over the subtree, µs (a service-demand lower
    /// bound on request latency, ignoring queueing and RPC).
    pub fn total_mean_demand_us(&self) -> f64 {
        self.pre.mean_us
            + self.post.mean_us
            + self
                .stages
                .iter()
                .flat_map(|s| &s.parallel)
                .map(CallNode::total_mean_demand_us)
                .sum::<f64>()
    }

    /// Accumulates per-service mean demand (µs per request) into `out`.
    pub fn demand_by_service(&self, out: &mut [f64]) {
        out[self.service.index()] += self.pre.mean_us + self.post.mean_us;
        for node in self.stages.iter().flat_map(|s| &s.parallel) {
            node.demand_by_service(out);
        }
    }
}

/// A request class: a named, weighted call tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestClass {
    /// Name used in reports ("product-view").
    pub name: String,
    /// Relative weight in the workload mix.
    pub weight: f64,
    /// The call tree; its root service is the request's entry point.
    pub root: CallNode,
}

/// Description of one service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Service name.
    pub name: String,
    /// Its microarchitectural profile.
    pub profile: ServiceProfile,
    /// Default worker threads per instance (deployments may override).
    pub default_threads: usize,
}

impl ServiceSpec {
    /// Creates a service with 8 default worker threads.
    pub fn new(name: &str, profile: ServiceProfile) -> ServiceSpec {
        ServiceSpec {
            name: name.to_owned(),
            profile,
            default_threads: 8,
        }
    }

    /// Overrides the default worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> ServiceSpec {
        assert!(threads >= 1, "a service needs at least one worker thread");
        self.default_threads = threads;
        self
    }
}

/// The whole application: services plus request classes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    services: Vec<ServiceSpec>,
    classes: Vec<RequestClass>,
}

impl AppSpec {
    /// Creates an empty application.
    pub fn new() -> AppSpec {
        AppSpec::default()
    }

    /// Adds a service, returning its id.
    pub fn add_service(&mut self, spec: ServiceSpec) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        self.services.push(spec);
        id
    }

    /// Adds a request class, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the call tree references a service that does not exist, or
    /// if `weight` is negative or not finite.
    pub fn add_class(&mut self, name: &str, weight: f64, root: CallNode) -> RequestClassId {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid class weight {weight}"
        );
        self.check_services(&root);
        let id = RequestClassId(self.classes.len() as u32);
        self.classes.push(RequestClass {
            name: name.to_owned(),
            weight,
            root,
        });
        id
    }

    fn check_services(&self, node: &CallNode) {
        assert!(
            node.service.index() < self.services.len(),
            "call tree references unknown {}",
            node.service
        );
        for child in node.stages.iter().flat_map(|s| &s.parallel) {
            self.check_services(child);
        }
    }

    /// The services of the application.
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// The request classes of the application.
    pub fn classes(&self) -> &[RequestClass] {
        &self.classes
    }

    /// Looks up a service id by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId(i as u32))
    }

    /// Looks up a request class id by name.
    pub fn class_by_name(&self, name: &str) -> Option<RequestClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| RequestClassId(i as u32))
    }

    /// The distinct caller → callee service pairs appearing in any request
    /// class. This is the communication-affinity graph placement policies
    /// use to co-locate chatty services.
    pub fn call_edges(&self) -> Vec<(ServiceId, ServiceId)> {
        fn visit(node: &CallNode, edges: &mut Vec<(ServiceId, ServiceId)>) {
            for child in node.stages.iter().flat_map(|s| &s.parallel) {
                let edge = (node.service, child.service);
                if !edges.contains(&edge) {
                    edges.push(edge);
                }
                visit(child, edges);
            }
        }
        let mut edges = Vec::new();
        for class in &self.classes {
            visit(&class.root, &mut edges);
        }
        edges
    }

    /// Mean CPU demand (µs) each service contributes per *average* request,
    /// weighting classes by the mix. This is the input to bottleneck and
    /// replica-count analysis.
    pub fn mean_demand_per_service_us(&self) -> Vec<f64> {
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut out = vec![0.0; self.services.len()];
        if total_weight <= 0.0 {
            return out;
        }
        for class in &self.classes {
            let mut per = vec![0.0; self.services.len()];
            class.root.demand_by_service(&mut per);
            for (o, p) in out.iter_mut().zip(&per) {
                *o += p * class.weight / total_weight;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::ServiceProfile;

    fn two_service_app() -> (AppSpec, ServiceId, ServiceId) {
        let mut app = AppSpec::new();
        let front = app.add_service(ServiceSpec::new(
            "front",
            ServiceProfile::web_frontend("front"),
        ));
        let back = app.add_service(ServiceSpec::new("back", ServiceProfile::data_tier("back")));
        (app, front, back)
    }

    #[test]
    fn demand_sampling() {
        let mut rng = Rng::seed_from(1);
        assert_eq!(Demand::ZERO.sample_us(&mut rng), 0.0);
        assert_eq!(Demand::fixed_us(5.0).sample_us(&mut rng), 5.0);
        let d = Demand::lognormal_us(100.0, 0.4);
        let mean: f64 = (0..50_000).map(|_| d.sample_us(&mut rng)).sum::<f64>() / 50_000.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
        assert_eq!(d.scaled(2.0).mean_us, 200.0);
    }

    #[test]
    fn sampler_draws_exactly_what_the_demand_draws() {
        let demands = [
            Demand::ZERO,
            Demand::fixed_us(5.0),
            Demand::fixed_us(0.25),
            Demand::lognormal_us(0.0, 0.4),
            Demand::lognormal_us(100.0, 0.4),
            Demand::lognormal_us(3.7, 1.9),
        ];
        for d in demands {
            let sampler = d.sampler();
            let mut a = Rng::seed_from(7);
            let mut b = Rng::seed_from(7);
            for i in 0..2_000 {
                let (x, y) = (d.sample_us(&mut a), sampler.sample_us(&mut b));
                assert_eq!(x.to_bits(), y.to_bits(), "{d:?} draw {i}");
            }
            // Both consumed the stream identically.
            assert_eq!(a.next_u64(), b.next_u64(), "{d:?}");
        }
    }

    #[test]
    fn call_tree_accounting() {
        let (mut app, front, back) = two_service_app();
        let tree = CallNode::new(
            front,
            Demand::fixed_us(100.0),
            vec![CallStage {
                parallel: vec![
                    CallNode::leaf(back, Demand::fixed_us(50.0)),
                    CallNode::leaf(back, Demand::fixed_us(70.0)),
                ],
            }],
            Demand::fixed_us(30.0),
        );
        assert_eq!(tree.node_count(), 3);
        assert!((tree.total_mean_demand_us() - 250.0).abs() < 1e-9);
        app.add_class("page", 1.0, tree);
        let per = app.mean_demand_per_service_us();
        assert!((per[front.index()] - 130.0).abs() < 1e-9);
        assert!((per[back.index()] - 120.0).abs() < 1e-9);
    }

    #[test]
    fn mix_weighting() {
        let (mut app, front, back) = two_service_app();
        app.add_class("a", 3.0, CallNode::leaf(front, Demand::fixed_us(100.0)));
        app.add_class("b", 1.0, CallNode::leaf(back, Demand::fixed_us(200.0)));
        let per = app.mean_demand_per_service_us();
        assert!((per[front.index()] - 75.0).abs() < 1e-9);
        assert!((per[back.index()] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn call_edges_deduplicate() {
        let (mut app, front, back) = two_service_app();
        let tree = CallNode::new(
            front,
            Demand::fixed_us(1.0),
            vec![CallStage {
                parallel: vec![
                    CallNode::leaf(back, Demand::fixed_us(1.0)),
                    CallNode::leaf(back, Demand::fixed_us(1.0)),
                ],
            }],
            Demand::ZERO,
        );
        app.add_class("a", 1.0, tree.clone());
        app.add_class("b", 1.0, tree);
        assert_eq!(app.call_edges(), vec![(front, back)]);
    }

    #[test]
    fn lookups() {
        let (app, front, back) = two_service_app();
        assert_eq!(app.service_by_name("front"), Some(front));
        assert_eq!(app.service_by_name("back"), Some(back));
        assert_eq!(app.service_by_name("nope"), None);
        assert_eq!(app.services().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown svc7")]
    fn unknown_service_in_tree_rejected() {
        let (mut app, _, _) = two_service_app();
        app.add_class("bad", 1.0, CallNode::leaf(ServiceId(7), Demand::ZERO));
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        ServiceSpec::new("x", ServiceProfile::light_rpc("x")).with_threads(0);
    }
}
