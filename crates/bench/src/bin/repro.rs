//! `repro` — regenerates every table and figure of the study.
//!
//! Run it without arguments for the usage text, or with `list` for the
//! catalog. Both, like `all` and the dispatch itself, come from the
//! experiment registry `scaleup_bench::experiments::EXPERIMENTS`; `perf`,
//! the simulator self-benchmark, is the one command outside it.
//!
//! Sweeps run on the work-stealing pool in `scaleup::par`; `--jobs N` caps
//! the workers (default: all CPUs). Results are merged in sweep order, so
//! any `--jobs` value produces byte-identical reports.

use scaleup::html::HtmlReport;
use scaleup_bench::experiments::{self as exp, Artifact, Section, EXPERIMENTS};
use scaleup_bench::{perf, Config};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The simulator self-benchmark: the one command outside the registry.
const PERF: &str = "perf";

enum Command {
    List { json: bool },
    Run(Cli),
}

#[derive(Default)]
struct Cli {
    quick: bool,
    seed: u64,
    shards: u32,
    csv_dir: Option<PathBuf>,
    html_path: Option<PathBuf>,
    gate_path: Option<PathBuf>,
    wanted: Vec<String>,
}

/// `repro list`: one line per experiment, then `perf`.
fn catalog() -> String {
    let mut out = String::new();
    for e in EXPERIMENTS {
        let _ = writeln!(
            out,
            "{:<5} {}  (~{:.0}s quick / ~{:.0}s full)",
            e.id, e.title, e.quick_secs, e.full_secs
        );
    }
    let _ = writeln!(
        out,
        "{PERF:<5} simulator self-benchmark (writes results/BENCH_simperf.json)"
    );
    out
}

/// `repro list --json`: the catalog as JSON (the CI smoke picks experiments
/// from it).
fn catalog_json() -> String {
    let mut out = String::from("[\n");
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"id\": \"{}\", \"title\": \"{}\", \"quick_est_secs\": {:.1}, \"full_est_secs\": {:.1}, \"shardable\": {}}}",
            e.id, e.title, e.quick_secs, e.full_secs, e.shardable
        );
        out.push_str(if i + 1 < EXPERIMENTS.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("]\n");
    out
}

fn usage() -> String {
    let named_only: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| !e.in_all())
        .map(|e| e.id)
        .collect();
    [
        "usage: repro [--quick] [--seed N] [--jobs N] [--shards N] [--csv DIR] [--html FILE] <experiment>... | all",
        "       repro [--gate BASELINE.json] perf",
        "       repro list [--json]",
        &format!("  all          every experiment below in order, except {}", named_only.join(", ")),
        "  --jobs N     sweep workers (default: all CPUs; any N gives identical output)",
        "  --shards N   run shardable experiments (list --json) with N parallel-in-run cells",
        "  --csv DIR    also write plot-ready CSV files",
        "  --html FILE  also write a self-contained HTML report",
        "  --gate FILE  with perf: fail if any simulated count differs from FILE",
        "",
        catalog().trim_end(),
    ]
    .join("\n")
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut cli = Cli {
        seed: 42,
        shards: 1,
        ..Cli::default()
    };
    let (mut list, mut json) = (false, false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(usage);
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--json" => json = true,
            "--seed" => cli.seed = value()?.parse().map_err(|_| usage())?,
            "--jobs" => {
                let jobs: usize = value()?.parse().map_err(|_| usage())?;
                scaleup::par::set_jobs(jobs.max(1));
            }
            "--shards" => {
                cli.shards = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(usage)?;
            }
            "--csv" => cli.csv_dir = Some(value()?.into()),
            "--html" => cli.html_path = Some(value()?.into()),
            "--gate" => cli.gate_path = Some(value()?.into()),
            "list" => list = true,
            "all" => {
                let all = EXPERIMENTS.iter().filter(|e| e.in_all());
                cli.wanted.extend(all.map(|e| e.id.to_owned()));
            }
            id if id == PERF || exp::find(id).is_some() => cli.wanted.push(arg),
            _ => return Err(usage()),
        }
    }
    if list {
        return Ok(Command::List { json });
    }
    if cli.wanted.is_empty() {
        return Err(usage());
    }
    // --gate without the perf experiment used to parse and then silently do
    // nothing; fail up front instead.
    perf::gate_requires_perf(&cli.wanted, cli.gate_path.is_some())?;
    Ok(Command::Run(cli))
}

/// Writes `contents` to `path`, creating its directory first.
fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    dir.map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents))
        .map_err(|e| format!("repro: cannot write {}: {e}", path.display()))
}

/// `repro perf`: runs the self-benchmark, writes
/// `results/BENCH_simperf.json` and, with `--gate`, compares its counts
/// against the committed baseline.
fn run_perf(gate: Option<&Path>) -> Result<Artifact, String> {
    // Read the committed baseline before the fresh results overwrite it
    // (the gate file is usually the same path).
    let committed = gate
        .map(perf::read_baseline)
        .transpose()
        .map_err(|msg| format!("{msg}\nperf gate FAILED"))?;
    let (table, json) = perf::run();
    let path = Path::new("results/BENCH_simperf.json");
    write(path, &json)?;
    println!("[wrote {}]", path.display());
    if let Some(committed) = committed {
        let report = perf::gate(&committed, &json)
            .map_err(|report| format!("{}\nperf gate FAILED", report.trim_end()))?;
        println!("{report}");
    }
    Ok(Artifact::new(&table))
}

/// Writes an artifact's `results/` files, checks its verdict, prints its
/// table and adds its HTML sections and CSV file.
fn emit(
    name: &str,
    artifact: Artifact,
    csv_dir: Option<&Path>,
    html: Option<&mut HtmlReport>,
) -> Result<(), String> {
    for (file, contents) in &artifact.results {
        let path = Path::new("results").join(file);
        write(&path, contents)?;
        println!("[wrote {}]", path.display());
    }
    if let Err(msg) = artifact.verdict {
        return Err(format!("{}\n{msg}", artifact.table));
    }
    println!("{}", artifact.table);
    if let Some(report) = html {
        for section in artifact.html {
            match section {
                Section::Chart(heading, chart) => report.chart(heading, chart),
                Section::Table(heading, headers, rows) => report.table(heading, headers, rows),
            };
        }
        report.pre(&format!("{name} (text table)"), artifact.table.trim_end());
    }
    if let (Some(dir), Some((file, contents))) = (csv_dir, artifact.csv) {
        let path = dir.join(file);
        write(&path, contents)?;
        println!("[wrote {}]", path.display());
    }
    Ok(())
}

fn run(cli: Cli) -> Result<(), String> {
    if let Some(dir) = &cli.csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("repro: cannot create {}: {e}", dir.display()))?;
    }
    let mut config = if cli.quick {
        Config::quick(cli.seed)
    } else {
        Config::paper(cli.seed)
    };
    // Thread the shard count through the shared lab: every experiment whose
    // runs route through `Lab::run_app`/`run_app_open` (the registry's
    // `shardable` entries) picks it up from there.
    config.lab.shards = cli.shards;
    let mode = if cli.quick { "quick" } else { "paper" };
    let seed = cli.seed;
    let shards = match cli.shards {
        1 => String::new(),
        n => format!(", {n} shards"),
    };
    println!("# repro: {mode} configuration, seed {seed}{shards}\n");
    let mut html = cli.html_path.as_ref().map(|_| {
        HtmlReport::new(&format!(
            "TeaStore scale-up reproduction ({mode} configuration, seed {seed})"
        ))
    });
    for name in &cli.wanted {
        let t0 = Instant::now();
        let artifact = match exp::find(name) {
            Some(e) => (e.run)(&config),
            None => run_perf(cli.gate_path.as_deref())?,
        };
        emit(name, artifact, cli.csv_dir.as_deref(), html.as_mut())?;
        println!("[{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    if let (Some(path), Some(report)) = (&cli.html_path, html) {
        write(path, report.render())?;
        println!("[wrote {}]", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Command::List { json: true }) => print!("{}", catalog_json()),
        Ok(Command::List { json: false }) => print!("{}", catalog()),
        Ok(Command::Run(cli)) => {
            if let Err(msg) = run(cli) {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
