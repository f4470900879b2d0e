//! Analytic microarchitectural performance model.
//!
//! The paper measures microservices with hardware performance counters; this
//! crate plays the role of the silicon. It answers two questions for the
//! simulation:
//!
//! 1. **How fast does a task execute right now?** A task's nominal work is
//!    expressed in *reference cycles* (cycles it would take alone, on a warm
//!    core, with local memory). The effective execution speed is the nominal
//!    frequency multiplied by a [`SpeedFactor`] computed from the task's
//!    [`ServiceProfile`] and its current surroundings: SMT sibling activity,
//!    L3 cache pressure within the CCX, and NUMA locality
//!    ([`UarchParams::speed_factor`]).
//!
//! 2. **What would the counters have read?** [`PerfCounters`] accumulates
//!    instructions, cycles, cache misses, branch mispredictions, context
//!    switches and migrations, and derives the IPC / MPKI / frontend-bound
//!    metrics that the paper's characterization tables report
//!    ([`counters`]).
//!
//! The crate also prices inter-service communication
//! ([`UarchParams::rpc_cost`]) as a function of [`cputopo::Proximity`] — the lever
//! behind the paper's topology-aware placement gains — and ships reference
//! profiles for conventional compute workloads ([`comparison`]) used as the
//! contrast class in the characterization study.
//!
//! # Example
//!
//! ```
//! use uarch::{ServiceProfile, UarchParams, ExecContext};
//!
//! let params = UarchParams::default();
//! let profile = ServiceProfile::web_frontend("webui");
//! let alone = params.speed_factor(&profile, &ExecContext::unloaded());
//! let crowded = params.speed_factor(&profile, &ExecContext {
//!     smt_sibling_busy: true,
//!     ccx_pressure: 2.0,
//!     numa_local: false,
//! });
//! assert!(alone.value() > crowded.value());
//! ```

pub mod boost;
pub mod comparison;
pub mod counters;
pub mod params;
pub mod profile;

pub use boost::BoostModel;
pub use counters::{DerivedMetrics, PerfCounters};
pub use params::{ExecContext, RpcCost, SpeedFactor, UarchParams};
pub use profile::ServiceProfile;
