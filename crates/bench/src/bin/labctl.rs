//! `labctl` — run one ad-hoc scale-up measurement from the command line.
//!
//! ```text
//! labctl [--topology 2P|1P|desktop|SxNxDxXxCxT] [--policy NAME] [--mix browse|buy|login]
//!        [--users N] [--think MS] [--budget N] [--seed N] [--measure MS]
//!        [--cpus LIST] [--trace N] [--plot]
//!
//! labctl --policy topology-aware --users 4096
//! labctl --topology 1x1x4x2x4x2 --policy ccx-aware --users 512 --plot
//! labctl --cpus 0-31 --users 256            # taskset-style mask sweep point
//! ```
//!
//! `--topology SxNxDxXxCxT` builds a custom machine: sockets × NUMA/socket ×
//! CCDs/NUMA × CCXs/CCD × cores/CCX × threads/core. `--cpus` confines every
//! instance to a Linux-style cpulist. `--trace N` samples every N-th request
//! and prints three span waterfalls.

use cputopo::{cpulist, CpuSet, Topology, TopologyBuilder};
use loadgen::ClosedLoop;
use microsvc::{
    Deployment, Engine, EngineParams, InstanceConfig, LbPolicy, ServiceId, WindowPolicy,
};
use scaleup::placement::Policy;
use scaleup::{tuner, Lab};
use simcore::{SimDuration, SimTime};
use std::sync::Arc;
use teastore::{MixProfile, TeaStore};

fn usage() -> ! {
    eprintln!(
        "usage: labctl [options]\n\
         --topology 2P|1P|desktop|SxNxDxXxCxT   machine (default 2P)\n\
         --policy unpinned|packed|spread-sockets|ccx-aware|numa-aware|topology-aware\n\
         --mix browse|buy|login                 request mix (default browse)\n\
         --users N                              closed-loop users (default 2048)\n\
         --think MS                             think time ms (default 10)\n\
         --budget N                             baseline instance budget (default 64)\n\
         --measure MS                           measurement window ms (default 1500)\n\
         --seed N                               master seed (default 42)\n\
         --shards N                             parallel-in-run cells (default 1)\n\
         --lookahead-cap N                      adaptive window sync, round width cap\n\
                                                in windows (default: conservative)\n\
         --cpus LIST                            confine all instances to a cpulist\n\
         --trace N                              sample every N-th request, print waterfalls\n\
         --plot                                 ASCII plot of per-window throughput"
    );
    std::process::exit(2);
}

/// Prints one error line and exits 2, as `repro` does for bad input.
fn reject(msg: &str) -> ! {
    eprintln!("labctl: {msg}");
    std::process::exit(2);
}

fn parse_topology(spec: &str) -> Topology {
    match spec {
        "2P" => Topology::zen2_2p_128c(),
        "1P" => Topology::zen2_1p_64c(),
        "desktop" => Topology::desktop_8c(),
        custom => {
            let parts: Vec<u32> = custom
                .split('x')
                .map(|p| p.parse().unwrap_or_else(|_| usage()))
                .collect();
            if parts.len() != 6 {
                usage();
            }
            TopologyBuilder::new(&format!("custom {custom}"))
                .sockets(parts[0])
                .numa_per_socket(parts[1])
                .ccds_per_numa(parts[2])
                .ccxs_per_ccd(parts[3])
                .cores_per_ccx(parts[4])
                .threads_per_core(parts[5])
                .build()
        }
    }
}

fn parse_policy(name: &str) -> Policy {
    match name {
        "unpinned" => Policy::Unpinned,
        "packed" => Policy::Packed,
        "spread-sockets" => Policy::SpreadSockets,
        "ccx-aware" => Policy::CcxAware,
        "numa-aware" => Policy::NumaAware,
        "topology-aware" => Policy::TopologyAware { ccxs: None },
        _ => usage(),
    }
}

struct Options {
    topology: Topology,
    policy: Policy,
    mix: MixProfile,
    users: u64,
    think_ms: u64,
    budget: usize,
    measure_ms: u64,
    seed: u64,
    shards: u32,
    lookahead_cap: Option<u32>,
    cpus: Option<CpuSet>,
    trace: Option<u64>,
    plot: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        topology: Topology::zen2_2p_128c(),
        policy: Policy::Unpinned,
        mix: MixProfile::Browse,
        users: 2048,
        think_ms: 10,
        budget: 64,
        measure_ms: 1500,
        seed: 42,
        shards: 1,
        lookahead_cap: None,
        cpus: None,
        trace: None,
        plot: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--topology" => opts.topology = parse_topology(&value()),
            "--policy" => opts.policy = parse_policy(&value()),
            "--mix" => {
                opts.mix = match value().as_str() {
                    "browse" => MixProfile::Browse,
                    "buy" => MixProfile::BuyHeavy,
                    "login" => MixProfile::LoginStorm,
                    _ => usage(),
                }
            }
            "--users" => opts.users = value().parse().unwrap_or_else(|_| usage()),
            "--think" => opts.think_ms = value().parse().unwrap_or_else(|_| usage()),
            "--budget" => opts.budget = value().parse().unwrap_or_else(|_| usage()),
            "--measure" => opts.measure_ms = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--shards" => opts.shards = value().parse().unwrap_or_else(|_| usage()),
            "--lookahead-cap" => {
                opts.lookahead_cap = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--cpus" => {
                let mask = cpulist::parse(&value()).unwrap_or_else(|e| reject(&e.to_string()));
                opts.cpus = Some(mask);
            }
            "--trace" => opts.trace = Some(value().parse().unwrap_or_else(|_| usage())),
            "--plot" => opts.plot = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // Reject what the engine would panic on, or silently clamp, before
    // anything is built.
    if opts.users == 0 {
        reject("--users must be at least 1");
    }
    if opts.shards == 0 {
        reject("--shards must be at least 1");
    }
    if let Some(mask) = &opts.cpus {
        let all = opts.topology.all_cpus();
        if mask.is_empty() {
            reject("--cpus selects no CPU");
        }
        if !mask.is_subset(all) {
            let (mask, all) = (cpulist::format(mask), cpulist::format(all));
            reject(&format!("--cpus {mask} exceeds the machine's CPUs {all}"));
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let topo = Arc::new(opts.topology);
    let store = TeaStore::with_mix(opts.mix);
    let replicas = tuner::proportional_replicas(store.app(), opts.budget);

    println!("{}\n", topo.summary());

    // Build the deployment: either a policy placement or a cpulist mask.
    let (deployment, lb) = if let Some(mask) = &opts.cpus {
        println!("confining every instance to CPUs {}", cpulist::format(mask));
        let mut deployment = Deployment::empty(store.app());
        for (svc, &n) in replicas.iter().enumerate() {
            for _ in 0..n {
                deployment.add_instance(
                    ServiceId(svc as u32),
                    InstanceConfig {
                        affinity: mask.clone(),
                        threads: store.app().services()[svc].default_threads,
                        mem_node: None,
                    },
                );
            }
        }
        (deployment, LbPolicy::RoundRobin)
    } else {
        let reps: &[usize] = if matches!(opts.policy, Policy::TopologyAware { .. }) {
            &[]
        } else {
            &replicas
        };
        let placed = opts.policy.deploy(store.app(), &topo, reps);
        println!(
            "policy {} → {} instances, LB {:?}",
            opts.policy.name(),
            placed.deployment.total_instances(),
            placed.lb
        );
        (placed.deployment, placed.lb)
    };

    // Run with tracing and per-window throughput if asked.
    let lab = Lab {
        topo: topo.clone(),
        engine_params: EngineParams {
            lb,
            trace_sample_every: opts.trace,
            ..EngineParams::default()
        },
        seed: opts.seed,
        users: opts.users,
        think: SimDuration::from_millis(opts.think_ms),
        warmup: SimDuration::from_millis(750),
        measure: SimDuration::from_millis(opts.measure_ms),
        checkpoint: false,
        shards: opts.shards,
        shard_cross_permille: 50,
        shard_latency: SimDuration::from_millis(1),
        shard_workers: 0,
        // `--lookahead-cap` selects adaptive widening; without it the
        // conservative default stays.
        shard_policy: match opts.lookahead_cap {
            Some(cap) => WindowPolicy::Adaptive { cap },
            None => WindowPolicy::Conservative,
        },
    };
    if lab.shards > 1 {
        // Sharded runs go through the lab's cell builder; per-request traces
        // stay a serial-run feature for now.
        if opts.trace.is_some() {
            eprintln!("note: --trace is ignored with --shards > 1");
        }
        let report = lab.run_app(store.app(), deployment, lb);
        println!("{}", report.summary());
        println!(
            "{} shards, {} events total",
            lab.shards, report.events_processed
        );
        return;
    }
    let mix = store.mix();
    let mut engine = Engine::new(
        topo,
        lab.engine_params.clone(),
        store.app().clone(),
        deployment,
        lab.seed,
    );
    let mut load = ClosedLoop::new(lab.users)
        .think_time(lab.think)
        .mix(&mix)
        .warmup(lab.warmup)
        .measure(lab.measure);
    engine.run(&mut load, SimTime::ZERO + (lab.warmup + lab.measure) * 4);
    let report = engine.report();
    println!("{}", report.summary());

    if opts.plot {
        // Rebuild a per-class completion series from the per-class table:
        // cheap plot of throughput share per class.
        let points: Vec<(f64, f64)> = report
            .per_class
            .iter()
            .enumerate()
            .map(|(i, (_, n, _))| (i as f64, *n as f64))
            .collect();
        println!(
            "{}",
            scaleup::report::ascii_plot(
                "completions per request class (index order)",
                &points,
                48,
                10
            )
        );
        for (i, (name, n, mean)) in report.per_class.iter().enumerate() {
            println!("  [{i}] {name:<12} {n:>8} done, mean {mean}");
        }
    }

    if opts.trace.is_some() {
        let names: Vec<&str> = store
            .app()
            .services()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        let complete: Vec<_> = engine
            .traces()
            .iter()
            .filter(|t| t.completed.is_some())
            .collect();
        println!("\n{} traces collected; first three:\n", complete.len());
        for trace in complete.iter().take(3) {
            println!("{}", trace.waterfall(&names));
        }
    }
}
