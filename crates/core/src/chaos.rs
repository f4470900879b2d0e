//! The chaos search harness: executes `microsvc::chaos` plans against the
//! simulator by forking one warm snapshot at the fault-trigger instant.
//!
//! The plan space, SLO oracle, and shrinker are pure data/algorithms in
//! `microsvc::chaos`; this module owns their execution. A [`ChaosLab`]
//! measures a fault-free baseline, takes **one** open-loop snapshot at
//! [`PlanSpace::from`] (the instant before any sampled fault can begin),
//! and then evaluates every candidate plan — the initial random search and
//! every shrink probe alike — by branching that snapshot with a
//! [`BranchOverrides::faults`] override: each probe re-simulates only the
//! post-trigger suffix instead of re-running the shared warm-up prefix.
//!
//! Determinism contract: the search trajectory (every sampled plan, every
//! verdict, every accepted shrink step, every minimal reproducer) is a pure
//! function of `(configuration, seed)`. Plans are sampled from the labeled
//! substream `("chaos.plan", index)`; probes are deterministic simulations;
//! [`par::map`](crate::par::map) returns results in input order, so the
//! worker count (`--jobs`) never changes a byte of the report. The golden
//! tests in `tests/chaos.rs` pin all of this, and a differential test pins
//! the fork-at-trigger path against straight runs.

use crate::lab::{BranchOverrides, Lab};
use crate::par;
use microsvc::{
    chaos, AppSpec, ChaosPlan, Deployment, LbPolicy, OracleCtx, PlanSpace, RunReport, Slo,
    SloPolicy, Verdict,
};
use simcore::snap::fnv64;
use simcore::SimTime;
use std::fmt::Write as _;

/// One violating plan, with its shrink result when shrinking was requested.
#[derive(Debug, Clone)]
pub struct ChaosFinding {
    /// The plan's index in the search — `space.sample(seed, index)`
    /// reproduces it exactly.
    pub index: u64,
    /// The violating plan as sampled.
    pub plan: ChaosPlan,
    /// The oracle's verdict on the sampled plan.
    pub verdict: Verdict,
    /// The invariant the shrinker preserved (the most severe violated one).
    pub target: Slo,
    /// The shrink result, if shrinking was requested.
    pub shrunk: Option<ShrunkFinding>,
}

/// The minimal reproducer of one finding.
#[derive(Debug, Clone)]
pub struct ShrunkFinding {
    /// The minimal plan: no single shrink step preserves the violation.
    pub minimal: ChaosPlan,
    /// The oracle's verdict on the minimal plan (still violates `target`).
    pub verdict: Verdict,
    /// Simulation probes the shrink spent.
    pub probes: u32,
    /// Accepted shrink steps in order.
    pub steps: Vec<String>,
}

/// The full, deterministic result of one chaos search.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the plans were sampled under.
    pub seed: u64,
    /// How many plans were sampled and evaluated.
    pub plans: u64,
    /// Every evaluated `(index, plan, verdict)`, in index order.
    pub evaluated: Vec<(u64, ChaosPlan, Verdict)>,
    /// The violating plans (shrunk if requested), in index order.
    pub findings: Vec<ChaosFinding>,
    /// Canonical rendering of the whole search: plans, verdicts, shrink
    /// steps, minimal reproducers. The determinism tests compare it
    /// byte-for-byte across reruns and worker counts.
    pub trajectory: String,
    /// FNV-1a of [`ChaosReport::trajectory`].
    pub trajectory_hash: u64,
    /// FNV-1a over the concatenated minimal reproducers — the single value
    /// the CI chaos-smoke job asserts.
    pub minimal_hash: u64,
}

impl ChaosReport {
    /// Violation counts per invariant, counting each violating plan once
    /// per invariant it violated.
    pub fn by_invariant(&self) -> Vec<(Slo, usize)> {
        [
            Slo::P99Ceiling,
            Slo::GoodputFloor,
            Slo::Recovery,
            Slo::Metastable,
        ]
        .into_iter()
        .map(|slo| {
            let n = self
                .findings
                .iter()
                .filter(|f| f.verdict.violated.contains(&slo))
                .count();
            (slo, n)
        })
        .collect()
    }

    /// The machine-readable report `repro chaos` writes (hand-rolled JSON,
    /// like the catalog's).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"plans\": {},", self.plans);
        let _ = writeln!(out, "  \"violations\": {},", self.findings.len());
        let _ = writeln!(
            out,
            "  \"trajectory_hash\": \"{:#018x}\",",
            self.trajectory_hash
        );
        let _ = writeln!(out, "  \"minimal_hash\": \"{:#018x}\",", self.minimal_hash);
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"index\": {},", f.index);
            let _ = writeln!(out, "      \"plan_hash\": \"{:#018x}\",", f.plan.hash());
            let _ = writeln!(out, "      \"plan_size\": {},", f.plan.size());
            let names: Vec<String> = f
                .verdict
                .violated
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect();
            let _ = writeln!(out, "      \"violated\": [{}],", names.join(", "));
            let _ = writeln!(out, "      \"target\": \"{}\",", f.target);
            match &f.shrunk {
                None => {
                    let _ = writeln!(out, "      \"shrunk\": null");
                }
                Some(s) => {
                    let _ = writeln!(out, "      \"shrunk\": {{");
                    let _ = writeln!(
                        out,
                        "        \"minimal_hash\": \"{:#018x}\",",
                        s.minimal.hash()
                    );
                    let _ = writeln!(out, "        \"minimal_size\": {},", s.minimal.size());
                    let _ = writeln!(out, "        \"probes\": {},", s.probes);
                    let steps: Vec<String> = s.steps.iter().map(|s| format!("\"{s}\"")).collect();
                    let _ = writeln!(out, "        \"steps\": [{}],", steps.join(", "));
                    let events: Vec<String> = s
                        .minimal
                        .describe()
                        .lines()
                        .map(|l| format!("\"{}\"", l.trim()))
                        .collect();
                    let _ = writeln!(out, "        \"events\": [{}]", events.join(", "));
                    let _ = writeln!(out, "      }}");
                }
            }
            out.push_str(if i + 1 < self.findings.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Search knobs: how many plans to sample and whether to shrink violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Number of plans to sample and evaluate.
    pub plans: u64,
    /// Shrink each violating plan to a minimal reproducer. The E29 grid
    /// sweep turns this off: it only needs the violating-region size.
    pub shrink: bool,
}

/// A configured chaos harness: one application, one load, one warm
/// snapshot, many candidate fault plans.
#[derive(Debug, Clone)]
pub struct ChaosLab {
    lab: Lab,
    app: AppSpec,
    deployment: Deployment,
    lb: LbPolicy,
    rate_rps: f64,
    /// The generative fault space plans are sampled from.
    pub space: PlanSpace,
    /// The SLO invariants every run is checked against.
    pub slo: SloPolicy,
    /// The fault-free baseline all thresholds are relative to.
    pub baseline: RunReport,
    snapshot: Vec<u8>,
}

impl ChaosLab {
    /// Builds the harness: runs the fault-free baseline and takes the warm
    /// snapshot at the trigger instant ([`PlanSpace::from`]).
    ///
    /// # Panics
    ///
    /// Panics if the lab already carries a fault plan (candidate plans are
    /// installed per probe; the shared prefix must be fault-free) or if the
    /// trigger instant does not lie strictly inside the run.
    pub fn new(
        lab: Lab,
        app: AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        rate_rps: f64,
        space: PlanSpace,
        slo: SloPolicy,
    ) -> Self {
        assert!(
            lab.engine_params.faults.is_empty(),
            "the chaos lab's own fault plan must be empty"
        );
        let horizon = SimTime::ZERO + lab.warmup + lab.measure;
        assert!(
            space.from > SimTime::ZERO && space.until <= horizon,
            "the fault window [{}, {}] must lie inside the run (ends {})",
            space.from,
            space.until,
            horizon
        );
        let baseline = lab.run_app_open(&app, deployment.clone(), lb, rate_rps);
        let snapshot = lab.snapshot_app_open(&app, deployment.clone(), lb, rate_rps, space.from);
        ChaosLab {
            lab,
            app,
            deployment,
            lb,
            rate_rps,
            space,
            slo,
            baseline,
            snapshot,
        }
    }

    /// The offered open-loop load of every probe, in requests/second.
    pub fn rate_rps(&self) -> f64 {
        self.rate_rps
    }

    /// Evaluates one plan by branching the warm snapshot at the trigger
    /// instant — only the post-trigger suffix is re-simulated.
    pub fn probe(&self, plan: &ChaosPlan) -> RunReport {
        self.lab
            .branch_app_open(
                &self.app,
                self.deployment.clone(),
                self.lb,
                self.rate_rps,
                &self.snapshot,
                &BranchOverrides {
                    faults: Some(plan.lower()),
                    ..BranchOverrides::default()
                },
            )
            .expect("an in-process snapshot restores into its own config")
    }

    /// Evaluates one plan the slow way: a full straight run with the plan
    /// baked into the engine parameters. The differential test holds this
    /// against [`ChaosLab::probe`] verdict-for-verdict.
    pub fn probe_straight(&self, plan: &ChaosPlan) -> RunReport {
        let mut lab = self.lab.clone();
        lab.engine_params.faults = plan.lower();
        lab.run_app_open(&self.app, self.deployment.clone(), self.lb, self.rate_rps)
    }

    /// Checks a probe's report against the SLO policy.
    pub fn verdict(&self, plan: &ChaosPlan, report: &RunReport) -> Verdict {
        let ctx = OracleCtx {
            baseline_rps: self.baseline.throughput_rps,
            window_start: SimTime::ZERO + self.lab.warmup,
            window_end: SimTime::ZERO + self.lab.warmup + self.lab.measure,
            fault_end: plan.latest_end().unwrap_or(self.space.from),
        };
        self.slo.check(&ctx, report)
    }

    /// The search + shrink loop: samples `opts.plans` plans under `seed`,
    /// evaluates each (in parallel, order-independent), and delta-debugs
    /// every violating plan to a minimal reproducer (each finding shrinks
    /// in parallel with the others; probes within one shrink are inherently
    /// sequential).
    pub fn search(&self, seed: u64, opts: &SearchOptions) -> ChaosReport {
        let indices: Vec<u64> = (0..opts.plans).collect();
        let evaluated: Vec<(u64, ChaosPlan, Verdict)> = par::map(indices, |index| {
            let plan = self.space.sample(seed, index);
            let report = self.probe(&plan);
            let verdict = self.verdict(&plan, &report);
            (index, plan, verdict)
        });

        let violating: Vec<(u64, ChaosPlan, Verdict)> = evaluated
            .iter()
            .filter(|(_, _, v)| v.is_violation())
            .cloned()
            .collect();
        let findings: Vec<ChaosFinding> = par::map(violating, |(index, plan, verdict)| {
            let target = verdict.primary().expect("violating plans have a target");
            let shrunk = opts.shrink.then(|| {
                let outcome = chaos::shrink(&plan, |candidate| {
                    let report = self.probe(candidate);
                    self.verdict(candidate, &report).violated.contains(&target)
                });
                let report = self.probe(&outcome.minimal);
                let verdict = self.verdict(&outcome.minimal, &report);
                ShrunkFinding {
                    minimal: outcome.minimal,
                    verdict,
                    probes: outcome.probes,
                    steps: outcome.steps,
                }
            });
            ChaosFinding {
                index,
                plan,
                verdict,
                target,
                shrunk,
            }
        });

        let mut trajectory = String::new();
        for (index, plan, verdict) in &evaluated {
            let _ = writeln!(
                trajectory,
                "plan {index:04} hash={:#018x} size={} verdict={}",
                plan.hash(),
                plan.size(),
                verdict.describe()
            );
        }
        let mut minimal_concat = String::new();
        for f in &findings {
            if let Some(s) = &f.shrunk {
                let _ = writeln!(
                    trajectory,
                    "shrink {index:04}: target={} probes={} steps=[{}] -> hash={:#018x} size={}",
                    f.target,
                    s.probes,
                    s.steps.join(" "),
                    s.minimal.hash(),
                    s.minimal.size(),
                    index = f.index,
                );
                trajectory.push_str(&s.minimal.describe());
                minimal_concat.push_str(&s.minimal.describe());
            }
        }
        let trajectory_hash = fnv64(trajectory.as_bytes());
        let minimal_hash = fnv64(minimal_concat.as_bytes());
        ChaosReport {
            seed,
            plans: opts.plans,
            evaluated,
            findings,
            trajectory,
            trajectory_hash,
            minimal_hash,
        }
    }
}
