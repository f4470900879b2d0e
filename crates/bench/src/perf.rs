//! Simulator self-benchmark with an exact, host-independent gate.
//!
//! `repro perf` runs four fixed scenarios once each and writes
//! `results/BENCH_simperf.json`: per scenario, the counts the run reports
//! already carry — calendar events, completions, calendar high water, the
//! scheduler counters, engine, generator and metrics footprint bytes, and
//! for the sharded scenario its rounds and barriers. The simulation is
//! deterministic, so these integers are the same on every host and at any
//! worker count, and `--gate` demands exact equality. Wall time, events/s,
//! peak RSS and bytes/user appear in the printed table for display only.

use loadgen::ClosedLoop;
use microsvc::{mix_seed, Deployment, Engine, EngineParams, ShardSpec, ShardedRun, SyncStats};
use oskernel::SchedStats;
use simcore::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use teastore::TeaStore;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where the proc filesystem is unavailable.
/// Monotonic over the process lifetime, so per-scenario readings reflect
/// the largest scenario run so far.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// One benchmark scenario: a deterministic full engine run.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    name: &'static str,
    /// `true` → the paper's 2P/256-CPU machine, else the desktop topology.
    big_machine: bool,
    users: u64,
    think_ms: u64,
    warmup_ms: u64,
    measure_ms: u64,
    /// Think-wakeup coalescing grain in ms (0 = exact per-user timers).
    coalesce_ms: u64,
    /// Parallel-in-run cell count (1 = the serial engine). The count is
    /// part of the scenario: sharded counts are deterministic *per cell
    /// count*, so the gate must always compare like with like.
    shards: u32,
}

/// A desktop-sized scenario cheap enough for debug-mode tests.
const DESKTOP: Scenario = Scenario {
    name: "teastore_desktop_64u_300ms",
    big_machine: false,
    users: 64,
    think_ms: 10,
    warmup_ms: 200,
    measure_ms: 300,
    coalesce_ms: 0,
    shards: 1,
};

/// The flagship scenario: the paper machine at 512 users, 2 s measured.
const FLAGSHIP: Scenario = Scenario {
    name: "teastore_2p256_512u_2s",
    big_machine: true,
    users: 512,
    think_ms: 20,
    warmup_ms: 1000,
    measure_ms: 2000,
    coalesce_ms: 0,
    shards: 1,
};

/// The mega scenario: one million closed-loop users on the 2-socket
/// machine. Ten-second think times keep the offered load near the socket's
/// saturation point rather than 1000× past it; 5 ms wake coalescing keeps
/// the calendar at O(active buckets) instead of a million live timers. The
/// short simulated window bounds the work — the point is the *population*,
/// exercising the SoA user table, the compact slabs, and batch wakeups.
const MEGA: Scenario = Scenario {
    name: "teastore_mega_1m_users",
    big_machine: true,
    users: 1_000_000,
    think_ms: 10_000,
    warmup_ms: 500,
    measure_ms: 1500,
    coalesce_ms: 5,
    shards: 1,
};

/// The sharded mega scenario: ten million closed-loop users split over 8
/// conservative-lookahead cells (1.25M users per cell, each cell a full
/// machine copy). The cell count is fixed at 8 — not the host's core count
/// — so the counts are identical on every machine; worker threads scale
/// with the host separately. Think time scales with the population (same
/// per-cell offered load as [`MEGA`]).
const MEGA_SHARDED: Scenario = Scenario {
    name: "teastore_mega_sharded",
    big_machine: true,
    users: 10_000_000,
    think_ms: 100_000,
    warmup_ms: 500,
    measure_ms: 1500,
    coalesce_ms: 10,
    shards: 8,
};

/// Every scenario, smallest first so the monotonic peak-RSS column mostly
/// attributes each reading to its own scenario.
const SCENARIOS: [Scenario; 4] = [DESKTOP, FLAGSHIP, MEGA, MEGA_SHARDED];

/// Simulated-time horizon; every scenario's measurement window ends first.
const UNTIL: SimTime = SimTime::from_secs(60);

/// Result of one scenario run.
#[derive(Debug, Clone)]
struct PerfRun {
    /// Scenario name.
    scenario: &'static str,
    /// Simulated closed-loop users.
    users: u64,
    /// Wall-clock seconds of the run (display only).
    wall_secs: f64,
    /// Process peak RSS (bytes) sampled right after the run (display only).
    peak_rss_bytes: u64,
    /// Calendar events processed.
    events: u64,
    /// Requests completed in the measurement window.
    completed: u64,
    /// Peak simultaneous pending calendar events (summed over cells).
    calendar_high_water: u64,
    /// Scheduler counters over the measurement window.
    sched: SchedStats,
    /// Engine heap bytes at the end of the run (summed over cells).
    engine_footprint_bytes: u64,
    /// Load-generator heap bytes at the end of the run (summed over cells):
    /// the coalesced user table, 0 for exact per-user timers.
    loadgen_footprint_bytes: u64,
    /// Latency-histogram row bytes at the end of the run (summed over
    /// cells).
    metrics_footprint_bytes: u64,
    /// Window-synchronization counters (sharded scenarios only).
    sync: Option<SyncStats>,
}

impl PerfRun {
    /// The gated counts as `(JSON field, value)`, in file order.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts = vec![
            ("events", self.events),
            ("completed", self.completed),
            ("calendar_high_water", self.calendar_high_water),
            ("sched_wakeups", self.sched.wakeups),
            ("sched_context_switches", self.sched.context_switches),
            ("sched_migrations", self.sched.migrations),
            ("sched_steals", self.sched.steals),
            ("engine_footprint_bytes", self.engine_footprint_bytes),
            ("loadgen_footprint_bytes", self.loadgen_footprint_bytes),
            ("metrics_footprint_bytes", self.metrics_footprint_bytes),
        ];
        if let Some(sync) = self.sync {
            counts.extend([("rounds", sync.rounds), ("barriers", sync.barriers)]);
        }
        counts
    }
}

/// Builds the scenario's cells: each a full machine copy with the same
/// deployment, the population split evenly, cell `c` seeded
/// `mix_seed(1, c)`. A serial scenario is its cell 0, because
/// `mix_seed(1, 0)` is the identity.
fn cells(s: &Scenario) -> Vec<(Engine, ClosedLoop)> {
    let topo = Arc::new(if s.big_machine {
        cputopo::Topology::zen2_2p_128c()
    } else {
        cputopo::Topology::desktop_8c()
    });
    let store = TeaStore::browse();
    let mix = store.mix();
    let app = store.into_app();
    let deployment = Deployment::uniform(&app, &topo, 4, 12);
    let shards = u64::from(s.shards);
    (0..s.shards)
        .map(|c| {
            let engine = Engine::new(
                topo.clone(),
                EngineParams::default(),
                app.clone(),
                deployment.clone(),
                mix_seed(1, c),
            );
            let users = s.users / shards + u64::from(u64::from(c) < s.users % shards);
            let mut load = ClosedLoop::new(users)
                .think_time(SimDuration::from_millis(s.think_ms))
                .mix(&mix)
                .warmup(SimDuration::from_millis(s.warmup_ms))
                .measure(SimDuration::from_millis(s.measure_ms));
            if s.coalesce_ms > 0 {
                load = load.coalesce(SimDuration::from_millis(s.coalesce_ms));
            }
            (engine, load)
        })
        .collect()
}

/// Runs one scenario: the serial engine for one cell, otherwise a
/// [`ShardedRun`] with cross-cell traffic at the default 5% and the 1 ms
/// lookahead window. Worker threads track the host's core count — the
/// counts depend only on the cell count, not the workers.
fn run_scenario(s: &Scenario) -> PerfRun {
    let mut cells = cells(s);
    let t0 = Instant::now();
    let (wall_secs, report, driver_bytes, sync) = if s.shards == 1 {
        let (mut engine, mut load) = cells.pop().expect("one cell");
        engine.run(&mut load, UNTIL);
        let wall = t0.elapsed().as_secs_f64();
        (wall, engine.report(), load.footprint_bytes() as u64, None)
    } else {
        let spec = ShardSpec {
            cells: s.shards,
            cross_permille: 50,
            latency: SimDuration::from_millis(1),
        };
        let mut run = ShardedRun::new(cells, spec);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        run.run(UNTIL, workers);
        let wall = t0.elapsed().as_secs_f64();
        let driver_bytes = run
            .drivers()
            .map(|d| d.inner().footprint_bytes() as u64)
            .sum();
        (wall, run.report(), driver_bytes, Some(run.sync_stats()))
    };
    PerfRun {
        scenario: s.name,
        users: s.users,
        wall_secs,
        peak_rss_bytes: peak_rss_bytes(),
        events: report.events_processed,
        completed: report.completed,
        calendar_high_water: report.calendar_high_water,
        sched: report.sched,
        engine_footprint_bytes: report.engine_footprint_bytes,
        loadgen_footprint_bytes: driver_bytes,
        metrics_footprint_bytes: report.metrics_footprint_bytes,
        sync,
    }
}

/// Runs the self-benchmark and renders the human table plus the JSON body
/// of `results/BENCH_simperf.json`.
pub fn run() -> (String, String) {
    let runs: Vec<PerfRun> = SCENARIOS.iter().map(run_scenario).collect();
    render(&runs)
}

/// Renders the human table and the JSON body for already-measured runs.
/// The JSON carries the counts only, one run object per line.
fn render(runs: &[PerfRun]) -> (String, String) {
    let mut table = String::from(
        "perf: simulator self-benchmark (one run each; wall s, events/s and peak MiB are host-dependent display)\nscenario                          wall s       events      events/s   completed  peak MiB    B/user\n",
    );
    for r in runs {
        let _ = writeln!(
            table,
            "{:<30} {:>9.3} {:>12} {:>13.0} {:>11} {:>9.1} {:>9.1}",
            r.scenario,
            r.wall_secs,
            r.events,
            r.events as f64 / r.wall_secs,
            r.completed,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            (r.engine_footprint_bytes + r.loadgen_footprint_bytes) as f64 / r.users as f64,
        );
        if let Some(sync) = r.sync {
            let _ = writeln!(
                table,
                "{:<30} sync: {} barriers, {} rounds",
                "", sync.barriers, sync.rounds
            );
        }
    }
    let mut json = String::from("{\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(json, "    {{ \"scenario\": \"{}\"", r.scenario);
        for (field, value) in r.counts() {
            let _ = write!(json, ", \"{field}\": {value}");
        }
        json.push_str(" }");
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    (table, json)
}

// ---------------------------------------------------------------- CI gate

/// One parsed run object: scenario name and its `(field, count)` pairs.
type Row = (String, Vec<(String, u64)>);

/// Parses a `BENCH_simperf.json` body as [`render`] writes it: one run
/// object per line. A field whose value is not an integer count is an
/// error, so a file in any other format fails loudly.
fn parse_runs(json: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for line in json.lines() {
        let Some(body) = line.trim().strip_prefix("{ \"scenario\": \"") else {
            continue;
        };
        let (name, rest) = body
            .split_once('"')
            .ok_or("perf gate: unterminated scenario name")?;
        let mut fields = Vec::new();
        for pair in rest.split(", \"").skip(1) {
            let (field, value) = pair.split_once("\": ").unwrap_or((pair, ""));
            let value = value.trim_end_matches([' ', '}', ',']);
            let count = value
                .parse()
                .map_err(|_| format!("perf gate: {name}.{field} = {value:?} is not a count"))?;
            fields.push((field.to_owned(), count));
        }
        rows.push((name.to_owned(), fields));
    }
    Ok(rows)
}

/// Reads the committed gate baseline, failing with an actionable message —
/// never silently — when the file is missing or unreadable. A missing
/// baseline must fail the gate loudly: skipping it would let regressions
/// through a CI job that claims to guard against them.
pub fn read_baseline(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| {
        format!(
            "perf gate: cannot read baseline {}: {e}\nrun `repro perf` and commit results/BENCH_simperf.json to record one",
            path.display()
        )
    })
}

/// `--gate` only has an effect when the `perf` experiment actually runs;
/// catching the mismatch up front beats parsing the flag and silently
/// ignoring it (which used to make `repro --gate X e3` pass vacuously).
pub fn gate_requires_perf(wanted: &[String], gate_requested: bool) -> Result<(), String> {
    if gate_requested && !wanted.iter().any(|w| w == "perf") {
        return Err(
            "--gate only applies to the `perf` experiment; add `perf` to the experiment list"
                .to_owned(),
        );
    }
    Ok(())
}

/// The regression tripwire behind `repro --gate`: every scenario and every
/// count must match the committed baseline exactly. A scenario or field on
/// one side only fails too, and each failure line names the scenario, the
/// field and both values.
pub fn gate(committed_json: &str, current_json: &str) -> Result<String, String> {
    let committed = parse_runs(committed_json)?;
    let current = parse_runs(current_json)?;
    let mut report = String::from("perf gate: exact counts vs the committed baseline\n");
    let mut failed = committed.is_empty();
    if failed {
        report.push_str("  the committed baseline has no runs\n");
    }
    for (name, base) in &committed {
        let Some((_, now)) = current.iter().find(|(n, _)| n == name) else {
            failed = true;
            let _ = writeln!(report, "  {name}: committed, but not run now -> MISSING");
            continue;
        };
        let value = |row: &[(String, u64)], field: &str| {
            row.iter()
                .find(|(f, _)| f == field)
                .map_or("absent".to_owned(), |(_, v)| v.to_string())
        };
        let extra = now
            .iter()
            .filter(|(f, _)| !base.iter().any(|(b, _)| b == f));
        let differ: Vec<&str> = (base.iter().chain(extra))
            .map(|(f, _)| f.as_str())
            .filter(|f| value(base, f) != value(now, f))
            .collect();
        for field in &differ {
            let (then, now) = (value(base, field), value(now, field));
            let _ = writeln!(
                report,
                "  {name}.{field}: committed {then}, now {now} -> CHANGED"
            );
        }
        if differ.is_empty() {
            let _ = writeln!(report, "  {name}: {} counts match", base.len());
        }
        failed |= !differ.is_empty();
    }
    for (name, _) in &current {
        if !committed.iter().any(|(n, _)| n == name) {
            failed = true;
            let _ = writeln!(report, "  {name}: run now, but not committed -> UNGATED");
        }
    }
    if failed {
        report.push_str("  (an intended change re-records the file: run `repro perf` and commit results/BENCH_simperf.json)\n");
        Err(report)
    } else {
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_scenario_runs_and_renders_json() {
        // The measurement itself, on the cheap scenario only — the mega
        // scenarios belong to release-mode `repro perf`, not debug tests.
        let run = run_scenario(&DESKTOP);
        assert!(run.completed > 100, "completed {}", run.completed);
        let (table, json) = render(std::slice::from_ref(&run));
        assert!(table.contains("teastore_desktop_64u_300ms"));
        assert!(table.contains("B/user"));
        // The counts are host-independent, so the committed file pins them
        // the way goldens do: a change that moves one re-records the file.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_simperf.json");
        let committed = parse_runs(&read_baseline(&path).unwrap()).unwrap();
        let row = committed.into_iter().find(|(n, _)| n == DESKTOP.name);
        assert_eq!(
            parse_runs(&json).unwrap(),
            vec![row.expect("the committed file has a desktop row")],
            "counts moved: re-record results/BENCH_simperf.json with `repro perf`"
        );
    }

    #[test]
    fn mega_scenario_is_coalesced_and_million_user() {
        assert_eq!(MEGA.users, 1_000_000);
        assert_ne!(MEGA.coalesce_ms, 0, "mega must coalesce wakeups");
    }

    #[test]
    fn mega_sharded_scenario_is_fixed_cell_and_ten_million_user() {
        assert_eq!(MEGA_SHARDED.users, 10_000_000);
        assert_eq!(
            MEGA_SHARDED.shards, 8,
            "the cell count is part of the scenario identity; changing it \
             invalidates the committed gate baseline"
        );
        assert_ne!(MEGA_SHARDED.coalesce_ms, 0, "mega must coalesce wakeups");
        // Same per-cell offered load as the serial mega scenario.
        assert_eq!(
            MEGA_SHARDED.users / MEGA_SHARDED.think_ms,
            MEGA.users / MEGA.think_ms
        );
    }

    #[test]
    fn sharded_runs_render_sync_columns() {
        let spec = Scenario {
            name: "sync_smoke",
            big_machine: false,
            users: 32,
            think_ms: 10,
            warmup_ms: 100,
            measure_ms: 200,
            coalesce_ms: 0,
            shards: 2,
        };
        let run = run_scenario(&spec);
        let sync = run.sync.expect("sharded run must report sync stats");
        assert!(sync.barriers > 0);
        let (table, json) = render(std::slice::from_ref(&run));
        assert!(table.contains("sync:"), "table: {table}");
        let rows = parse_runs(&json).unwrap();
        assert_eq!(rows.len(), 1, "json: {json}");
        let fields: Vec<&str> = rows[0].1.iter().map(|(f, _)| f.as_str()).collect();
        assert!(fields.ends_with(&["rounds", "barriers"]), "json: {json}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_proc_status() {
        assert!(peak_rss_bytes() > 0, "VmHWM should be nonzero on Linux");
    }

    /// Two synthetic runs, one sharded; every count distinct so a textual
    /// bump of one `"field": value` pair hits exactly that field.
    fn sample(names: [&'static str; 2]) -> String {
        let run = |scenario, base: u64, sync| PerfRun {
            scenario,
            users: 10,
            wall_secs: 1.0,
            peak_rss_bytes: 1,
            events: base + 1,
            completed: base + 2,
            calendar_high_water: base + 3,
            sched: SchedStats {
                wakeups: base + 4,
                context_switches: base + 5,
                migrations: base + 6,
                steals: base + 7,
            },
            engine_footprint_bytes: base + 8,
            loadgen_footprint_bytes: base + 9,
            metrics_footprint_bytes: base + 10,
            sync,
        };
        let sync = SyncStats {
            rounds: 1020,
            barriers: 1021,
            ..SyncStats::default()
        };
        render(&[run(names[0], 100, None), run(names[1], 1000, Some(sync))]).1
    }

    #[test]
    fn gate_passes_identical_bodies() {
        let body = sample(["desk", "mega"]);
        let report = gate(&body, &body).unwrap();
        assert!(report.contains("desk: 10 counts match"), "report: {report}");
        assert!(report.contains("mega: 12 counts match"), "report: {report}");
    }

    #[test]
    fn gate_fails_on_each_field_changed_by_one_or_dropped() {
        let body = sample(["desk", "mega"]);
        for layer in [
            "engine_footprint_bytes",
            "loadgen_footprint_bytes",
            "metrics_footprint_bytes",
        ] {
            assert_eq!(body.matches(&format!("\"{layer}\": ")).count(), 2, "{body}");
        }
        for (name, fields) in parse_runs(&body).unwrap() {
            for (field, value) in fields {
                let pair = format!(", \"{field}\": {value}");
                let next = value + 1;
                let bumped = (format!(", \"{field}\": {next}"), next.to_string());
                let dropped = (String::new(), "absent".to_owned());
                for (edit, now) in [bumped, dropped] {
                    let report = gate(&body, &body.replacen(&pair, &edit, 1)).unwrap_err();
                    let line = format!("{name}.{field}: committed {value}, now {now}");
                    assert!(report.contains(&line), "want {line:?} in {report}");
                    assert_eq!(report.matches("CHANGED").count(), 1, "report: {report}");
                }
            }
        }
    }

    /// `body` without the run line of scenario `name`.
    fn without(body: &str, name: &str) -> String {
        let keep = |line: &&str| !line.contains(&format!("\"scenario\": \"{name}\""));
        body.lines().filter(keep).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn gate_fails_when_a_committed_scenario_is_not_run() {
        let committed = sample(["desk", "mega"]);
        let report = gate(&committed, &without(&committed, "desk")).unwrap_err();
        assert!(
            report.contains("desk: committed, but not run now"),
            "report: {report}"
        );
        assert!(report.contains("mega: 12 counts match"), "report: {report}");
    }

    #[test]
    fn gate_fails_on_an_extra_scenario_in_the_run() {
        let current = sample(["desk", "mega"]);
        let report = gate(&without(&current, "mega"), &current).unwrap_err();
        assert!(
            report.contains("mega: run now, but not committed"),
            "report: {report}"
        );
        assert!(report.contains("desk: 10 counts match"), "report: {report}");
    }

    #[test]
    fn gate_rejects_disjoint_scenario_sets() {
        let report = gate(&sample(["a", "b"]), &sample(["c", "d"])).unwrap_err();
        for line in [
            "a: committed, but not run now",
            "c: run now, but not committed",
        ] {
            assert!(report.contains(line), "want {line:?} in {report}");
        }
    }

    #[test]
    fn gate_rejects_a_file_in_another_format() {
        let old = "{ \"scenario\": \"desk\", \"reps\": 2, \"wall_secs\": 0.5 }";
        let err = gate(old, &sample(["desk", "mega"])).unwrap_err();
        assert!(err.contains("desk.wall_secs"), "message: {err}");
    }

    #[test]
    fn read_baseline_reports_a_missing_file_instead_of_passing() {
        let path = std::path::Path::new("results/this_baseline_does_not_exist.json");
        let err = read_baseline(path).unwrap_err();
        assert!(err.contains("cannot read baseline"), "message: {err}");
        assert!(err.contains("this_baseline_does_not_exist.json"));
        assert!(
            err.contains("repro perf"),
            "must say how to record one: {err}"
        );
    }

    #[test]
    fn gate_flag_without_perf_is_an_error_not_a_silent_pass() {
        let wanted = vec!["e3".to_owned(), "e8".to_owned()];
        let err = gate_requires_perf(&wanted, true).unwrap_err();
        assert!(err.contains("perf"), "message: {err}");
        assert!(gate_requires_perf(&wanted, false).is_ok());
        let with_perf = vec!["e3".to_owned(), "perf".to_owned()];
        assert!(gate_requires_perf(&with_perf, true).is_ok());
    }
}
