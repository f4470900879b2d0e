//! The topology hierarchy itself.

use crate::cpuset::CpuSet;
use crate::ids::{CcdId, CcxId, CoreId, CpuId, NumaId, SocketId};
use core::fmt;
use serde::{Deserialize, Serialize};

/// Shape parameters of a machine, the input to [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Human-readable model name (appears in reports).
    pub name: String,
    /// Number of sockets (packages).
    pub sockets: u32,
    /// NUMA nodes per socket (1 = NPS1, 4 = NPS4, …).
    pub numa_per_socket: u32,
    /// Core complex dies per NUMA node.
    pub ccds_per_numa: u32,
    /// Core complexes (L3 domains) per CCD.
    pub ccxs_per_ccd: u32,
    /// Physical cores per CCX.
    pub cores_per_ccx: u32,
    /// SMT threads per core (1 or 2 on x86).
    pub threads_per_core: u32,
    /// Nominal core frequency in GHz (used to convert cycles to time).
    pub freq_ghz: f64,
    /// Cache sizes.
    pub caches: CacheSpec,
}

/// Cache capacities at each level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Per-core L1 data cache, bytes.
    pub l1d_bytes: u64,
    /// Per-core unified L2, bytes.
    pub l2_bytes: u64,
    /// Per-CCX shared L3 slice, bytes.
    pub l3_bytes: u64,
    /// Cache line size, bytes.
    pub line_bytes: u64,
}

impl Default for CacheSpec {
    /// Zen2-like capacities: 32 KiB L1d, 512 KiB L2, 16 MiB L3 per CCX.
    fn default() -> Self {
        CacheSpec {
            l1d_bytes: 32 << 10,
            l2_bytes: 512 << 10,
            l3_bytes: 16 << 20,
            line_bytes: 64,
        }
    }
}

/// How far apart two logical CPUs sit in the hierarchy.
///
/// Ordered from closest to farthest, so `a.min(b)` and comparisons behave
/// naturally in cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Proximity {
    /// The very same logical CPU.
    SameCpu,
    /// Two SMT threads of one core (share L1/L2).
    SmtSibling,
    /// Same CCX: share an L3 slice.
    SameCcx,
    /// Same CCD (die), different CCX.
    SameCcd,
    /// Same NUMA node, different die.
    SameNuma,
    /// Same socket, different NUMA node (NPS>1 configurations).
    SameSocket,
    /// Different sockets.
    CrossSocket,
}

impl fmt::Display for Proximity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Proximity::SameCpu => "same-cpu",
            Proximity::SmtSibling => "smt-sibling",
            Proximity::SameCcx => "same-ccx",
            Proximity::SameCcd => "same-ccd",
            Proximity::SameNuma => "same-numa",
            Proximity::SameSocket => "same-socket",
            Proximity::CrossSocket => "cross-socket",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CpuInfo {
    core: CoreId,
    ccx: CcxId,
    ccd: CcdId,
    numa: NumaId,
    socket: SocketId,
    smt_index: u32,
    /// The other thread of this CPU's core on an SMT2 machine.
    smt_sibling: Option<CpuId>,
}

/// An immutable machine topology.
///
/// Construct with [`TopologyBuilder`] or a preset. Logical CPU numbering is
/// Linux-style: CPUs `0..num_cores` are the first SMT thread of each core
/// (socket-major order), CPUs `num_cores..2·num_cores` are their siblings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    spec: TopologySpec,
    cpus: Vec<CpuInfo>,
    cpus_per_core: Vec<CpuSet>,
    cpus_per_ccx: Vec<CpuSet>,
    cpus_per_ccd: Vec<CpuSet>,
    cpus_per_numa: Vec<CpuSet>,
    cpus_per_socket: Vec<CpuSet>,
    all: CpuSet,
}

/// Builder for [`Topology`] values.
///
/// ```
/// use cputopo::TopologyBuilder;
/// let topo = TopologyBuilder::new("toy")
///     .sockets(1)
///     .ccds_per_numa(1)
///     .ccxs_per_ccd(2)
///     .cores_per_ccx(4)
///     .threads_per_core(2)
///     .build();
/// assert_eq!(topo.num_cpus(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    spec: TopologySpec,
}

impl TopologyBuilder {
    /// Starts from a single-socket, one-CCD, one-CCX, 4-core, SMT2 machine.
    pub fn new(name: &str) -> Self {
        TopologyBuilder {
            spec: TopologySpec {
                name: name.to_owned(),
                sockets: 1,
                numa_per_socket: 1,
                ccds_per_numa: 1,
                ccxs_per_ccd: 1,
                cores_per_ccx: 4,
                threads_per_core: 2,
                freq_ghz: 2.25,
                caches: CacheSpec::default(),
            },
        }
    }

    /// Sets the socket count.
    pub fn sockets(mut self, n: u32) -> Self {
        self.spec.sockets = n;
        self
    }

    /// Sets NUMA nodes per socket.
    pub fn numa_per_socket(mut self, n: u32) -> Self {
        self.spec.numa_per_socket = n;
        self
    }

    /// Sets CCDs per NUMA node.
    pub fn ccds_per_numa(mut self, n: u32) -> Self {
        self.spec.ccds_per_numa = n;
        self
    }

    /// Sets CCXs per CCD.
    pub fn ccxs_per_ccd(mut self, n: u32) -> Self {
        self.spec.ccxs_per_ccd = n;
        self
    }

    /// Sets cores per CCX.
    pub fn cores_per_ccx(mut self, n: u32) -> Self {
        self.spec.cores_per_ccx = n;
        self
    }

    /// Sets SMT threads per core.
    pub fn threads_per_core(mut self, n: u32) -> Self {
        self.spec.threads_per_core = n;
        self
    }

    /// Sets the nominal frequency in GHz.
    pub fn freq_ghz(mut self, f: f64) -> Self {
        self.spec.freq_ghz = f;
        self
    }

    /// Sets cache capacities.
    pub fn caches(mut self, caches: CacheSpec) -> Self {
        self.spec.caches = caches;
        self
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, `threads_per_core` exceeds 8, or the
    /// frequency is not positive.
    pub fn build(self) -> Topology {
        Topology::from_spec(self.spec)
    }
}

impl Topology {
    /// Builds a topology directly from a [`TopologySpec`].
    ///
    /// # Panics
    ///
    /// See [`TopologyBuilder::build`].
    pub fn from_spec(spec: TopologySpec) -> Self {
        assert!(spec.sockets >= 1, "need at least one socket");
        assert!(
            spec.numa_per_socket >= 1,
            "need at least one NUMA node per socket"
        );
        assert!(
            spec.ccds_per_numa >= 1,
            "need at least one CCD per NUMA node"
        );
        assert!(spec.ccxs_per_ccd >= 1, "need at least one CCX per CCD");
        assert!(spec.cores_per_ccx >= 1, "need at least one core per CCX");
        assert!(
            (1..=8).contains(&spec.threads_per_core),
            "threads_per_core must be in 1..=8, got {}",
            spec.threads_per_core
        );
        assert!(spec.freq_ghz > 0.0, "frequency must be positive");

        let numas = spec.sockets * spec.numa_per_socket;
        let ccds = numas * spec.ccds_per_numa;
        let ccxs = ccds * spec.ccxs_per_ccd;
        let cores = ccxs * spec.cores_per_ccx;
        let ncpus = (cores * spec.threads_per_core) as usize;

        let mut cpus = vec![
            CpuInfo {
                core: CoreId(0),
                ccx: CcxId(0),
                ccd: CcdId(0),
                numa: NumaId(0),
                socket: SocketId(0),
                smt_index: 0,
                smt_sibling: None,
            };
            ncpus
        ];

        // Linux-style numbering: thread 0 of core k is CPU k; thread t of
        // core k is CPU t·cores + k.
        for core in 0..cores {
            let ccx = core / spec.cores_per_ccx;
            let ccd = ccx / spec.ccxs_per_ccd;
            let numa = ccd / spec.ccds_per_numa;
            let socket = numa / spec.numa_per_socket;
            for t in 0..spec.threads_per_core {
                let cpu = (t * cores + core) as usize;
                cpus[cpu] = CpuInfo {
                    core: CoreId(core),
                    ccx: CcxId(ccx),
                    ccd: CcdId(ccd),
                    numa: NumaId(numa),
                    socket: SocketId(socket),
                    smt_index: t,
                    smt_sibling: (spec.threads_per_core == 2)
                        .then(|| CpuId((1 - t) * cores + core)),
                };
            }
        }

        let mut cpus_per_core = vec![CpuSet::empty(); cores as usize];
        let mut cpus_per_ccx = vec![CpuSet::empty(); ccxs as usize];
        let mut cpus_per_ccd = vec![CpuSet::empty(); ccds as usize];
        let mut cpus_per_numa = vec![CpuSet::empty(); numas as usize];
        let mut cpus_per_socket = vec![CpuSet::empty(); spec.sockets as usize];
        let mut all = CpuSet::empty();
        for (i, info) in cpus.iter().enumerate() {
            let cpu = CpuId(i as u32);
            cpus_per_core[info.core.index()].insert(cpu);
            cpus_per_ccx[info.ccx.index()].insert(cpu);
            cpus_per_ccd[info.ccd.index()].insert(cpu);
            cpus_per_numa[info.numa.index()].insert(cpu);
            cpus_per_socket[info.socket.index()].insert(cpu);
            all.insert(cpu);
        }

        Topology {
            spec,
            cpus,
            cpus_per_core,
            cpus_per_ccx,
            cpus_per_ccd,
            cpus_per_numa,
            cpus_per_socket,
            all,
        }
    }

    /// The dual-socket, 128-logical-CPUs-per-socket machine of the paper:
    /// 2 sockets × 8 CCDs × 2 CCXs × 4 cores × SMT2 = 256 logical CPUs.
    pub fn zen2_2p_128c() -> Self {
        TopologyBuilder::new("2P x86-64, 64C/128T per socket (Zen2-class)")
            .sockets(2)
            .numa_per_socket(1)
            .ccds_per_numa(8)
            .ccxs_per_ccd(2)
            .cores_per_ccx(4)
            .threads_per_core(2)
            .freq_ghz(2.25)
            .build()
    }

    /// A single-socket variant of the same part.
    pub fn zen2_1p_64c() -> Self {
        TopologyBuilder::new("1P x86-64, 64C/128T (Zen2-class)")
            .sockets(1)
            .numa_per_socket(1)
            .ccds_per_numa(8)
            .ccxs_per_ccd(2)
            .cores_per_ccx(4)
            .threads_per_core(2)
            .freq_ghz(2.25)
            .build()
    }

    /// A small desktop-class machine, handy for tests and quick examples.
    pub fn desktop_8c() -> Self {
        TopologyBuilder::new("1P desktop, 8C/16T")
            .sockets(1)
            .ccds_per_numa(1)
            .ccxs_per_ccd(2)
            .cores_per_ccx(4)
            .threads_per_core(2)
            .freq_ghz(3.6)
            .build()
    }

    /// The shape parameters this topology was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Nominal frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.spec.freq_ghz * 1e9
    }

    /// Cache capacities.
    pub fn caches(&self) -> &CacheSpec {
        &self.spec.caches
    }

    /// Number of logical CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.cpus_per_core.len()
    }

    /// Number of CCXs (L3 domains).
    pub fn num_ccxs(&self) -> usize {
        self.cpus_per_ccx.len()
    }

    /// Number of CCDs (dies).
    pub fn num_ccds(&self) -> usize {
        self.cpus_per_ccd.len()
    }

    /// Number of NUMA nodes.
    pub fn num_numas(&self) -> usize {
        self.cpus_per_numa.len()
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.cpus_per_socket.len()
    }

    fn info(&self, cpu: CpuId) -> &CpuInfo {
        &self.cpus[cpu.index()]
    }

    /// The physical core of a logical CPU.
    pub fn core_of(&self, cpu: CpuId) -> CoreId {
        self.info(cpu).core
    }

    /// The CCX (L3 domain) of a logical CPU.
    pub fn ccx_of(&self, cpu: CpuId) -> CcxId {
        self.info(cpu).ccx
    }

    /// The CCD (die) of a logical CPU.
    pub fn ccd_of(&self, cpu: CpuId) -> CcdId {
        self.info(cpu).ccd
    }

    /// The NUMA node of a logical CPU.
    pub fn numa_of(&self, cpu: CpuId) -> NumaId {
        self.info(cpu).numa
    }

    /// The socket of a logical CPU.
    pub fn socket_of(&self, cpu: CpuId) -> SocketId {
        self.info(cpu).socket
    }

    /// The SMT index (0 = first thread) of a logical CPU within its core.
    pub fn smt_index(&self, cpu: CpuId) -> u32 {
        self.info(cpu).smt_index
    }

    /// The other SMT thread of this CPU's core, if the core has exactly two.
    pub fn smt_sibling(&self, cpu: CpuId) -> Option<CpuId> {
        self.info(cpu).smt_sibling
    }

    /// All logical CPUs of a core.
    pub fn cpus_in_core(&self, core: CoreId) -> &CpuSet {
        &self.cpus_per_core[core.index()]
    }

    /// All logical CPUs of a CCX.
    pub fn cpus_in_ccx(&self, ccx: CcxId) -> &CpuSet {
        &self.cpus_per_ccx[ccx.index()]
    }

    /// All logical CPUs of a CCD.
    pub fn cpus_in_ccd(&self, ccd: CcdId) -> &CpuSet {
        &self.cpus_per_ccd[ccd.index()]
    }

    /// All logical CPUs of a NUMA node.
    pub fn cpus_in_numa(&self, numa: NumaId) -> &CpuSet {
        &self.cpus_per_numa[numa.index()]
    }

    /// All logical CPUs of a socket.
    pub fn cpus_in_socket(&self, socket: SocketId) -> &CpuSet {
        &self.cpus_per_socket[socket.index()]
    }

    /// Every logical CPU in the machine.
    pub fn all_cpus(&self) -> &CpuSet {
        &self.all
    }

    /// The NUMA node a CCX belongs to.
    pub fn numa_of_ccx(&self, ccx: CcxId) -> NumaId {
        let cpu = self.cpus_per_ccx[ccx.index()]
            .first()
            .expect("CCXs are never empty");
        self.numa_of(cpu)
    }

    /// Iterates the CCX ids of a NUMA node.
    pub fn ccxs_in_numa(&self, numa: NumaId) -> impl Iterator<Item = CcxId> + '_ {
        (0..self.num_ccxs() as u32)
            .map(CcxId)
            .filter(move |&c| self.numa_of_ccx(c) == numa)
    }

    /// How far apart two logical CPUs are.
    pub fn proximity(&self, a: CpuId, b: CpuId) -> Proximity {
        if a == b {
            return Proximity::SameCpu;
        }
        let (ia, ib) = (self.info(a), self.info(b));
        if ia.core == ib.core {
            Proximity::SmtSibling
        } else if ia.ccx == ib.ccx {
            Proximity::SameCcx
        } else if ia.ccd == ib.ccd {
            Proximity::SameCcd
        } else if ia.numa == ib.numa {
            Proximity::SameNuma
        } else if ia.socket == ib.socket {
            Proximity::SameSocket
        } else {
            Proximity::CrossSocket
        }
    }

    /// ACPI-SLIT-style distance between two NUMA nodes (10 = local).
    pub fn numa_distance(&self, a: NumaId, b: NumaId) -> u32 {
        if a == b {
            10
        } else {
            let sa = a.0 / self.spec.numa_per_socket;
            let sb = b.0 / self.spec.numa_per_socket;
            if sa == sb {
                12
            } else {
                32
            }
        }
    }

    /// The nested scheduling domains of a CPU, innermost (its core) first and
    /// the whole machine last. The scheduler walks these outward when looking
    /// for idle CPUs.
    pub fn domains_of(&self, cpu: CpuId) -> [&CpuSet; 6] {
        let info = self.info(cpu);
        [
            &self.cpus_per_core[info.core.index()],
            &self.cpus_per_ccx[info.ccx.index()],
            &self.cpus_per_ccd[info.ccd.index()],
            &self.cpus_per_numa[info.numa.index()],
            &self.cpus_per_socket[info.socket.index()],
            &self.all,
        ]
    }

    /// A Graphviz `dot` rendering of the hierarchy (sockets → CCDs → CCXs →
    /// cores), for topology documentation. Logical CPUs are listed inside
    /// their core node.
    ///
    /// ```
    /// use cputopo::Topology;
    /// let dot = Topology::desktop_8c().to_dot();
    /// assert!(dot.starts_with("graph topology {"));
    /// assert!(dot.contains("ccx0"));
    /// ```
    pub fn to_dot(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::from("graph topology {\n  rankdir=TB;\n  node [shape=box];\n");
        for socket in 0..self.num_sockets() as u32 {
            let _ = writeln!(
                out,
                "  subgraph cluster_skt{socket} {{ label=\"socket {socket}\";"
            );
            for ccd in 0..self.num_ccds() as u32 {
                let ccd_id = CcdId(ccd);
                let first = self.cpus_per_ccd[ccd_id.index()]
                    .first()
                    .expect("non-empty");
                if self.socket_of(first) != SocketId(socket) {
                    continue;
                }
                let _ = writeln!(out, "    subgraph cluster_ccd{ccd} {{ label=\"ccd {ccd}\";");
                for ccx in 0..self.num_ccxs() as u32 {
                    let ccx_id = CcxId(ccx);
                    let cfirst = self.cpus_per_ccx[ccx_id.index()]
                        .first()
                        .expect("non-empty");
                    if self.ccd_of(cfirst) != ccd_id {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "      subgraph cluster_ccx{ccx} {{ label=\"ccx{ccx} (L3 {} MiB)\";",
                        self.spec.caches.l3_bytes >> 20
                    );
                    for core in 0..self.num_cores() as u32 {
                        let core_id = CoreId(core);
                        let kfirst = self.cpus_per_core[core_id.index()]
                            .first()
                            .expect("non-empty");
                        if self.ccx_of(kfirst) != ccx_id {
                            continue;
                        }
                        let cpus: Vec<String> = self.cpus_per_core[core_id.index()]
                            .iter()
                            .map(|c| c.0.to_string())
                            .collect();
                        let _ = writeln!(
                            out,
                            "        core{core} [label=\"core {core}\\ncpus {}\"];",
                            cpus.join(",")
                        );
                    }
                    out.push_str("      }\n");
                }
                out.push_str("    }\n");
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// A multi-line human-readable inventory (experiment E1's table).
    pub fn summary(&self) -> String {
        let s = &self.spec;
        format!(
            "{}\n\
             sockets            : {}\n\
             NUMA nodes         : {} ({} per socket)\n\
             CCDs               : {}\n\
             CCXs (L3 domains)  : {}\n\
             cores              : {}\n\
             logical CPUs       : {} (SMT{})\n\
             frequency          : {:.2} GHz\n\
             L1d / L2 per core  : {} KiB / {} KiB\n\
             L3 per CCX         : {} MiB (machine total {} MiB)",
            s.name,
            s.sockets,
            self.num_numas(),
            s.numa_per_socket,
            self.num_ccds(),
            self.num_ccxs(),
            self.num_cores(),
            self.num_cpus(),
            s.threads_per_core,
            s.freq_ghz,
            s.caches.l1d_bytes >> 10,
            s.caches.l2_bytes >> 10,
            s.caches.l3_bytes >> 20,
            (s.caches.l3_bytes * self.num_ccxs() as u64) >> 20,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_counts() {
        let t = Topology::zen2_2p_128c();
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.num_numas(), 2);
        assert_eq!(t.num_ccds(), 16);
        assert_eq!(t.num_ccxs(), 32);
        assert_eq!(t.num_cores(), 128);
        assert_eq!(t.num_cpus(), 256);
        assert_eq!(t.cpus_in_socket(SocketId(0)).len(), 128);
        assert_eq!(t.cpus_in_ccx(CcxId(0)).len(), 8);
        assert_eq!(t.cpus_in_core(CoreId(0)).len(), 2);
    }

    #[test]
    fn linux_style_numbering() {
        let t = Topology::zen2_2p_128c();
        // First thread of core k is cpu k, sibling is cpu 128+k.
        assert_eq!(t.core_of(CpuId(5)), CoreId(5));
        assert_eq!(t.core_of(CpuId(128 + 5)), CoreId(5));
        assert_eq!(t.smt_sibling(CpuId(5)), Some(CpuId(133)));
        assert_eq!(t.smt_sibling(CpuId(133)), Some(CpuId(5)));
        assert_eq!(t.smt_index(CpuId(5)), 0);
        assert_eq!(t.smt_index(CpuId(133)), 1);
        // Socket boundary at core 64.
        assert_eq!(t.socket_of(CpuId(63)), SocketId(0));
        assert_eq!(t.socket_of(CpuId(64)), SocketId(1));
        assert_eq!(t.socket_of(CpuId(191)), SocketId(0));
        assert_eq!(t.socket_of(CpuId(192)), SocketId(1));
    }

    #[test]
    fn ccx_groups_are_contiguous_cores() {
        let t = Topology::zen2_2p_128c();
        // Cores 0-3 form CCX 0, cores 4-7 CCX 1, ...
        assert_eq!(t.ccx_of(CpuId(0)), t.ccx_of(CpuId(3)));
        assert_ne!(t.ccx_of(CpuId(3)), t.ccx_of(CpuId(4)));
        assert_eq!(t.ccd_of(CpuId(0)), t.ccd_of(CpuId(7)));
        assert_ne!(t.ccd_of(CpuId(7)), t.ccd_of(CpuId(8)));
    }

    #[test]
    fn proximity_levels() {
        let t = Topology::zen2_2p_128c();
        assert_eq!(t.proximity(CpuId(0), CpuId(0)), Proximity::SameCpu);
        assert_eq!(t.proximity(CpuId(0), CpuId(128)), Proximity::SmtSibling);
        assert_eq!(t.proximity(CpuId(0), CpuId(1)), Proximity::SameCcx);
        assert_eq!(t.proximity(CpuId(0), CpuId(4)), Proximity::SameCcd);
        assert_eq!(t.proximity(CpuId(0), CpuId(8)), Proximity::SameNuma);
        assert_eq!(t.proximity(CpuId(0), CpuId(64)), Proximity::CrossSocket);
        assert!(Proximity::SameCcx < Proximity::CrossSocket);
    }

    #[test]
    fn nps4_exposes_same_socket_level() {
        let t = TopologyBuilder::new("nps4")
            .sockets(1)
            .numa_per_socket(4)
            .ccds_per_numa(2)
            .ccxs_per_ccd(2)
            .cores_per_ccx(4)
            .build();
        assert_eq!(t.num_numas(), 4);
        // Core 0 is numa 0; core 16 is numa 1; same socket.
        assert_eq!(t.proximity(CpuId(0), CpuId(16)), Proximity::SameSocket);
        assert_eq!(t.numa_distance(NumaId(0), NumaId(1)), 12);
        assert_eq!(t.numa_distance(NumaId(0), NumaId(0)), 10);
    }

    #[test]
    fn numa_distance_cross_socket() {
        let t = Topology::zen2_2p_128c();
        assert_eq!(t.numa_distance(NumaId(0), NumaId(1)), 32);
    }

    #[test]
    fn domains_nest() {
        let t = Topology::zen2_2p_128c();
        let doms = t.domains_of(CpuId(42));
        for w in doms.windows(2) {
            assert!(w[0].is_subset(w[1]), "domains must nest outward");
        }
        assert_eq!(doms[0].len(), 2);
        assert_eq!(doms[5].len(), 256);
    }

    #[test]
    fn smt1_machine_has_no_siblings() {
        let t = TopologyBuilder::new("smt-off").threads_per_core(1).build();
        assert_eq!(t.smt_sibling(CpuId(0)), None);
        assert_eq!(t.num_cpus(), t.num_cores());
    }

    #[test]
    fn smt_sibling_table_matches_the_core_scan() {
        // The definition the table replaced: the other CPU of the core, on
        // SMT2 machines only.
        let scan = |t: &Topology, cpu: CpuId| {
            (t.spec().threads_per_core == 2)
                .then(|| t.cpus_in_core(t.core_of(cpu)).iter().find(|&c| c != cpu))
                .flatten()
        };
        let machines = [
            Topology::desktop_8c(),
            Topology::zen2_2p_128c(),
            TopologyBuilder::new("smt1").threads_per_core(1).build(),
            TopologyBuilder::new("smt4").threads_per_core(4).build(),
        ];
        for t in &machines {
            for cpu in t.all_cpus().iter() {
                assert_eq!(
                    t.smt_sibling(cpu),
                    scan(t, cpu),
                    "{} cpu {cpu:?}",
                    t.spec().name
                );
            }
        }
        assert!(machines[2..]
            .iter()
            .all(|t| t.all_cpus().iter().all(|c| t.smt_sibling(c).is_none())));
    }

    #[test]
    fn ccxs_in_numa_partition() {
        let t = Topology::zen2_2p_128c();
        let n0: Vec<CcxId> = t.ccxs_in_numa(NumaId(0)).collect();
        let n1: Vec<CcxId> = t.ccxs_in_numa(NumaId(1)).collect();
        assert_eq!(n0.len(), 16);
        assert_eq!(n1.len(), 16);
        assert!(n0.iter().all(|c| !n1.contains(c)));
    }

    #[test]
    fn dot_export_nests_the_hierarchy() {
        let dot = Topology::desktop_8c().to_dot();
        assert!(dot.starts_with("graph topology {"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(dot.matches("cluster_skt").count(), 1);
        assert_eq!(dot.matches("cluster_ccx").count(), 2);
        assert!(dot.matches("core").count() >= 8);
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn summary_mentions_key_counts() {
        let s = Topology::zen2_2p_128c().summary();
        assert!(s.contains("256"));
        assert!(s.contains("2.25"));
        assert!(s.contains("16 MiB"));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        TopologyBuilder::new("bad").cores_per_ccx(0).build();
    }

    #[test]
    fn every_cpu_is_in_exactly_one_set_per_level() {
        let t = Topology::desktop_8c();
        for cpu in t.all_cpus().iter() {
            let hits = (0..t.num_ccxs() as u32)
                .filter(|&c| t.cpus_in_ccx(CcxId(c)).contains(cpu))
                .count();
            assert_eq!(hits, 1);
        }
    }
}
