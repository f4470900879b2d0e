//! Contention model parameters and the speed/cost functions built on them.
//!
//! Every constant is documented with its provenance. The model is
//! deliberately simple — multiplicative derating factors on a per-task
//! reference speed — because the paper's phenomena (SMT yields ~1.2–1.4×,
//! L3 thrash between co-located services, remote-socket RPC tax) are all
//! first-order effects.

use crate::boost::BoostModel;
use crate::profile::ServiceProfile;
use cputopo::Proximity;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;

/// A multiplicative execution-speed factor in `(0, 1]`.
///
/// 1.0 = reference conditions (alone, warm, local memory). A task with
/// factor `f` retires its reference cycles at `f × nominal_frequency`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SpeedFactor(f64);

impl SpeedFactor {
    /// Wraps a raw factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f ≤ 1`.
    pub fn new(f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "speed factor {f} outside (0, 1]");
        SpeedFactor(f)
    }

    /// The raw factor.
    pub fn value(self) -> f64 {
        self.0
    }
}

/// The surroundings of a running task, as seen by the contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecContext {
    /// Is the SMT sibling of this logical CPU currently executing a task?
    pub smt_sibling_busy: bool,
    /// Sum of working sets of tasks currently running on this CCX divided by
    /// the CCX's L3 capacity. Below ~1 the L3 holds everyone; above, misses
    /// grow with the overcommit.
    pub ccx_pressure: f64,
    /// Does this task's memory home node match the CPU it runs on?
    pub numa_local: bool,
}

impl ExecContext {
    /// Reference conditions: idle sibling, empty L3, local memory.
    pub fn unloaded() -> Self {
        ExecContext {
            smt_sibling_busy: false,
            ccx_pressure: 0.0,
            numa_local: true,
        }
    }
}

simcore::snap_fields!(ExecContext {
    smt_sibling_busy,
    ccx_pressure,
    numa_local,
});

/// The price of one RPC between two service instances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RpcCost {
    /// Wire + protocol-stack latency (not occupying any CPU).
    pub latency: SimDuration,
    /// CPU work at the *caller* (serialize + send + kernel), reference cycles.
    pub caller_cycles: u64,
    /// CPU work at the *callee* (receive + deserialize + kernel), reference cycles.
    pub callee_cycles: u64,
}

/// All tunable constants of the microarchitectural model.
///
/// Defaults model a Zen2-class server part at 2.25 GHz. See each field for
/// provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UarchParams {
    /// Per-thread throughput when both SMT siblings are busy, relative to
    /// running alone. 0.62 ⇒ a fully co-run core delivers 1.24× the work of
    /// one thread — in the 1.2–1.4× range commonly measured for server Java
    /// workloads.
    pub smt_corun_factor: f64,
    /// How fast IPC degrades once the CCX's combined working set exceeds the
    /// L3: `1 / (1 + l3_slope · excess · mem_sensitivity)` where `excess =
    /// max(0, pressure − l3_knee)`. Calibrated so that the fully-mixed
    /// unpinned deployment loses ~15–20% IPC to cache interference, matching
    /// the paper's headline gap.
    pub l3_slope: f64,
    /// The pressure level where L3 contention starts to bite. Below 0.75 of
    /// capacity the cache absorbs everyone (associativity slack).
    pub l3_knee: f64,
    /// IPC multiplier for fully-remote memory at `mem_sensitivity = 1`:
    /// `1 − numa_remote_penalty · mem_sensitivity`. Remote DRAM roughly
    /// doubles latency on 2P parts, but out-of-order cores and MLP hide most
    /// of it for these cache-resident services; 0.10 yields the ~5–10%
    /// remote-memory tax measured for socket-remote web serving.
    pub numa_remote_penalty: f64,
    /// One-way loopback RPC latency between SMT siblings / within a CCX.
    /// ~6 µs covers the syscall + TCP/loopback path of a small REST call.
    pub rpc_latency_same_ccx: SimDuration,
    /// One-way latency within a CCD (adds an L3→L3 hop).
    pub rpc_latency_same_ccd: SimDuration,
    /// One-way latency within a NUMA node / socket (on-package fabric).
    pub rpc_latency_same_socket: SimDuration,
    /// One-way latency across sockets (inter-package link + remote cache
    /// line transfers for socket buffers).
    pub rpc_latency_cross_socket: SimDuration,
    /// CPU cycles burned per RPC endpoint for the local case (syscalls,
    /// copies, protocol work). ~8k cycles ≈ 3.5 µs at 2.25 GHz.
    pub rpc_endpoint_cycles: u64,
    /// Multiplier on endpoint cycles when caller and callee are on different
    /// sockets: payload cache lines must cross the package boundary, so the
    /// copy loops stall longer.
    pub rpc_cross_socket_cpu_mult: f64,
    /// Multiplier on endpoint cycles when crossing CCDs within a socket.
    pub rpc_cross_ccd_cpu_mult: f64,
    /// Direct cost of one context switch (register save + scheduler),
    /// reference cycles. ~3k cycles ≈ 1.3 µs.
    pub context_switch_cycles: u64,
    /// Extra one-time work after a task migrates to a cold core in the same
    /// L3 domain (refill L1/L2).
    pub migration_cycles_same_ccx: u64,
    /// Cold-cache refill after migrating across L3 domains (same socket).
    pub migration_cycles_same_socket: u64,
    /// Cold-cache refill after migrating across sockets.
    pub migration_cycles_cross_socket: u64,
    /// Opportunistic frequency boost as a function of machine occupancy.
    /// [`BoostModel::Flat`] by default so calibrated results are boost-free;
    /// experiment E14 ablates a Rome-like curve.
    pub boost: BoostModel,
}

impl Default for UarchParams {
    fn default() -> Self {
        UarchParams {
            smt_corun_factor: 0.62,
            l3_slope: 0.10,
            l3_knee: 0.75,
            numa_remote_penalty: 0.06,
            rpc_latency_same_ccx: SimDuration::from_micros(6),
            rpc_latency_same_ccd: SimDuration::from_micros(8),
            rpc_latency_same_socket: SimDuration::from_micros(11),
            rpc_latency_cross_socket: SimDuration::from_micros(19),
            rpc_endpoint_cycles: 8_000,
            rpc_cross_socket_cpu_mult: 1.9,
            rpc_cross_ccd_cpu_mult: 1.25,
            context_switch_cycles: 3_000,
            migration_cycles_same_ccx: 8_000,
            migration_cycles_same_socket: 40_000,
            migration_cycles_cross_socket: 120_000,
            boost: BoostModel::Flat,
        }
    }
}

impl UarchParams {
    /// The execution-speed factor for `profile` under `ctx`.
    ///
    /// Composed multiplicatively from the SMT, L3-pressure and NUMA terms.
    pub fn speed_factor(&self, profile: &ServiceProfile, ctx: &ExecContext) -> SpeedFactor {
        let smt = if ctx.smt_sibling_busy {
            self.smt_corun_factor
        } else {
            1.0
        };
        let excess = (ctx.ccx_pressure - self.l3_knee).max(0.0);
        let l3 = 1.0 / (1.0 + self.l3_slope * excess * profile.mem_sensitivity);
        let numa = if ctx.numa_local {
            1.0
        } else {
            1.0 - self.numa_remote_penalty * profile.mem_sensitivity
        };
        SpeedFactor::new((smt * l3 * numa).clamp(0.05, 1.0))
    }

    /// The price of one RPC whose endpoints sit at the given proximity.
    pub fn rpc_cost(&self, proximity: Proximity) -> RpcCost {
        let (latency, cpu_mult) = match proximity {
            Proximity::SameCpu | Proximity::SmtSibling | Proximity::SameCcx => {
                (self.rpc_latency_same_ccx, 1.0)
            }
            Proximity::SameCcd => (self.rpc_latency_same_ccd, self.rpc_cross_ccd_cpu_mult),
            Proximity::SameNuma | Proximity::SameSocket => {
                (self.rpc_latency_same_socket, self.rpc_cross_ccd_cpu_mult)
            }
            Proximity::CrossSocket => (
                self.rpc_latency_cross_socket,
                self.rpc_cross_socket_cpu_mult,
            ),
        };
        let endpoint = (self.rpc_endpoint_cycles as f64 * cpu_mult).round() as u64;
        RpcCost {
            latency,
            caller_cycles: endpoint,
            callee_cycles: endpoint,
        }
    }

    /// The one-time cold-cache cost of migrating a task between two CPUs at
    /// the given proximity.
    pub fn migration_cost(&self, proximity: Proximity) -> u64 {
        match proximity {
            Proximity::SameCpu => 0,
            Proximity::SmtSibling | Proximity::SameCcx => self.migration_cycles_same_ccx,
            Proximity::SameCcd | Proximity::SameNuma | Proximity::SameSocket => {
                self.migration_cycles_same_socket
            }
            Proximity::CrossSocket => self.migration_cycles_cross_socket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn webui() -> ServiceProfile {
        ServiceProfile::web_frontend("webui")
    }

    #[test]
    fn unloaded_context_is_reference_speed() {
        let p = UarchParams::default();
        let f = p.speed_factor(&webui(), &ExecContext::unloaded());
        assert_eq!(f.value(), 1.0);
    }

    #[test]
    fn smt_corun_slows_both() {
        let p = UarchParams::default();
        let ctx = ExecContext {
            smt_sibling_busy: true,
            ..ExecContext::unloaded()
        };
        let f = p.speed_factor(&webui(), &ctx);
        assert!((f.value() - 0.62).abs() < 1e-12);
    }

    #[test]
    fn l3_pressure_below_knee_is_free() {
        let p = UarchParams::default();
        let ctx = ExecContext {
            ccx_pressure: 0.5,
            ..ExecContext::unloaded()
        };
        assert_eq!(p.speed_factor(&webui(), &ctx).value(), 1.0);
    }

    #[test]
    fn l3_pressure_above_knee_derates_by_sensitivity() {
        let p = UarchParams::default();
        let ctx = ExecContext {
            ccx_pressure: 2.0,
            ..ExecContext::unloaded()
        };
        let web = p.speed_factor(&webui(), &ctx).value();
        let mut compute = webui();
        compute.mem_sensitivity = 0.0;
        let cpu = p.speed_factor(&compute, &ctx).value();
        assert!(web < 1.0);
        assert_eq!(cpu, 1.0, "memory-insensitive work ignores L3 pressure");
    }

    #[test]
    fn remote_numa_derates() {
        let p = UarchParams::default();
        let ctx = ExecContext {
            numa_local: false,
            ..ExecContext::unloaded()
        };
        let f = p.speed_factor(&webui(), &ctx).value();
        let expected = 1.0 - p.numa_remote_penalty * webui().mem_sensitivity;
        assert!((f - expected).abs() < 1e-12);
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let p = UarchParams::default();
        let both = ExecContext {
            smt_sibling_busy: true,
            numa_local: false,
            ccx_pressure: 0.0,
        };
        let f = p.speed_factor(&webui(), &both).value();
        let expected = p.smt_corun_factor * (1.0 - p.numa_remote_penalty * webui().mem_sensitivity);
        assert!((f - expected).abs() < 1e-12);
    }

    #[test]
    fn speed_factor_never_hits_zero() {
        let p = UarchParams::default();
        let brutal = ExecContext {
            smt_sibling_busy: true,
            ccx_pressure: 100.0,
            numa_local: false,
        };
        let f = p.speed_factor(&webui(), &brutal);
        assert!(f.value() >= 0.05);
    }

    #[test]
    fn rpc_cost_grows_with_distance() {
        let p = UarchParams::default();
        let near = p.rpc_cost(Proximity::SameCcx);
        let mid = p.rpc_cost(Proximity::SameCcd);
        let far = p.rpc_cost(Proximity::CrossSocket);
        assert!(near.latency < mid.latency);
        assert!(mid.latency < far.latency);
        assert!(near.caller_cycles < far.caller_cycles);
        assert_eq!(far.caller_cycles, far.callee_cycles);
    }

    #[test]
    fn migration_cost_grows_with_distance() {
        let p = UarchParams::default();
        assert_eq!(p.migration_cost(Proximity::SameCpu), 0);
        assert!(p.migration_cost(Proximity::SameCcx) < p.migration_cost(Proximity::SameCcd));
        assert!(p.migration_cost(Proximity::SameSocket) < p.migration_cost(Proximity::CrossSocket));
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn speed_factor_rejects_out_of_range() {
        SpeedFactor::new(1.5);
    }
}
