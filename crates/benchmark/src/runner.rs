//! `benchmark run`: every workload in its own child process, one at a time,
//! collected into one result file with a host and provenance block.
//!
//! A child is this same binary in contract mode (`--workload … --seed …
//! --seconds … --trace 0|1`), so the numbers in a result file are exactly
//! what the contract's command reports. One process per workload keeps
//! `peak_rss_mb` per workload and one workload's allocator state out of the
//! next one's timings; strictly sequential children keep the two cores of
//! the host from being shared between measurements.

use crate::json::Json;
use crate::spec::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// What `benchmark run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// One full set of workloads is run per seed, in order (a seed may
    /// repeat: that measures run-to-run noise on identical inputs).
    pub seeds: Vec<u64>,
    /// Also run the traced invocation of every workload.
    pub trace: bool,
    /// All counts ÷ 20 and half a second per measured phase instead of the
    /// contract's `run_seconds`; the file is marked and `compare` refuses it.
    pub quick: bool,
    /// The result file.
    pub out: PathBuf,
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
}

impl RunOptions {
    /// Seconds each measured phase runs.
    fn seconds(&self) -> f64 {
        if self.quick {
            0.5
        } else {
            spec::run_seconds() as f64
        }
    }
}

/// Where and on what the numbers were taken.
fn provenance() -> Json {
    let unknown = || "unknown".to_owned();
    Json::object()
        .with("nproc", command_line("nproc", &[]).unwrap_or_else(unknown))
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
}

/// A child's parsed output: the contract's result object and the detail
/// object printed on the line before it.
struct ChildOutput {
    result: Json,
    detail: Json,
    wall_s: f64,
}

fn run_child(
    workload: Workload,
    seed: u64,
    options: &RunOptions,
    traced: bool,
    spans: Option<&Path>,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    if let Some(spans) = spans {
        command.arg("--spans").arg(spans);
    }
    let start = Instant::now();
    // `output` waits for the child: children never overlap.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}:\n{}",
            workload.name(),
            u8::from(traced),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|line| !line.trim().is_empty());
    let result = lines
        .next()
        .ok_or_else(|| format!("{} printed no result", workload.name()))
        .and_then(Json::parse)?;
    let detail = lines
        .next()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|line| line.get("detail").cloned())
        .unwrap_or(Json::Null);
    Ok(ChildOutput {
        result,
        detail,
        wall_s,
    })
}

/// Flattens the contract's `{"name": {"value", "unit"}}` into
/// `{"name": value}`.
fn metric_values(result: &Json) -> Json {
    let mut values = Json::object();
    if let Some(metrics) = result.get("metrics") {
        for (name, entry) in metrics.members() {
            values.set(name, entry.get("value").cloned().unwrap_or(Json::Null));
        }
    }
    values
}

fn print_metrics(title: &str, result: &Json) {
    println!("  {title}");
    if let Some(metrics) = result.get("metrics") {
        for (name, entry) in metrics.members() {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("    {name:<40} {value:>18.6} {unit}");
        }
    }
}

/// Where the traced child of one workload writes its spans before they are
/// folded into `<out>.trace.json`.
fn spans_part(out: &Path, workload: Workload, seed_index: usize) -> PathBuf {
    let mut name = out.as_os_str().to_owned();
    name.push(format!(".trace.{}.{seed_index}.part", workload.name()));
    PathBuf::from(name)
}

/// What `run` has collected so far.
struct Collected {
    per_workload: Vec<(Workload, Vec<Json>)>,
    traces: Json,
    failed: u64,
}

/// Runs every workload for every seed into `collected`; stops at the first
/// child that cannot be run or prints no result.
fn run_children(options: &RunOptions, collected: &mut Collected) -> Result<(), String> {
    for (seed_index, &seed) in options.seeds.iter().enumerate() {
        for (workload, runs) in &mut collected.per_workload {
            println!("{} (seed {seed})", workload.name());
            let untraced = run_child(*workload, seed, options, false, None)?;
            print_metrics("end to end (tracing off)", &untraced.result);
            let count = |result: &Json, key: &str| {
                result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
            };
            let mut attempted = count(&untraced.result, "attempted");
            let mut failed = count(&untraced.result, "failed");
            let mut entry = Json::object()
                .with("seed", seed)
                .with("wall_s", untraced.wall_s)
                .with("end_to_end", metric_values(&untraced.result))
                .with("detail", untraced.detail);

            if options.trace {
                let part = spans_part(&options.out, *workload, seed_index);
                let traced = run_child(*workload, seed, options, true, Some(&part))?;
                print_metrics("per layer (traced invocation)", &traced.result);
                attempted += count(&traced.result, "attempted");
                failed += count(&traced.result, "failed");
                entry.set("traced_wall_s", traced.wall_s);
                entry.set("per_layer", metric_values(&traced.result));
                entry.set("traced_detail", traced.detail);
                let spans = std::fs::read_to_string(&part)
                    .map_err(|e| format!("cannot read {}: {e}", part.display()))
                    .and_then(|text| Json::parse(&text))?;
                let _ = std::fs::remove_file(&part);
                collected
                    .traces
                    .set(&format!("{}#{seed_index}", workload.name()), spans);
            }
            println!("  operations: {attempted} attempted, {failed} failed");
            entry.set("attempted", attempted);
            entry.set("failed", failed);
            collected.failed += failed;
            runs.push(entry);
        }
    }
    Ok(())
}

/// Runs every workload for every seed and writes the result file (and, with
/// `trace`, `<out>.trace.json`). Returns the total number of failed
/// operations. When a child cannot be run, the runs collected so far are
/// still written — marked `"complete": false`, which `compare` refuses —
/// before the child's error is returned.
pub fn run(options: &RunOptions) -> Result<u64, String> {
    let mut collected = Collected {
        per_workload: Workload::ALL.iter().map(|&w| (w, Vec::new())).collect(),
        traces: Json::object(),
        failed: 0,
    };
    let outcome = run_children(options, &mut collected);

    let mut workloads = Json::object();
    for (workload, runs) in collected.per_workload {
        workloads.set(
            workload.name(),
            Json::object()
                .with("why", workload.why())
                .with("runs", runs),
        );
    }
    let document = Json::object()
        .with("benchmark", "dimension-pruning")
        .with("quick", options.quick)
        .with("complete", outcome.is_ok())
        .with("run_seconds", options.seconds())
        .with(
            "seeds",
            options
                .seeds
                .iter()
                .map(|&s| Json::from(s))
                .collect::<Vec<_>>(),
        )
        .with("host", provenance())
        .with("contract", spec::contract().clone())
        .with("workloads", workloads);
    let written = write_files(options, &document, &collected.traces);
    // A child's error is the cause; a write error on top of it adds nothing.
    outcome.and(written).map(|()| collected.failed)
}

fn write_files(options: &RunOptions, document: &Json, traces: &Json) -> Result<(), String> {
    std::fs::write(&options.out, document.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", options.out.display()))?;
    println!("wrote {}", options.out.display());
    if options.trace {
        let mut path = options.out.as_os_str().to_owned();
        path.push(".trace.json");
        std::fs::write(&path, traces.to_line())
            .map_err(|e| format!("cannot write {}: {e}", Path::new(&path).display()))?;
        println!("wrote {}", Path::new(&path).display());
    }
    Ok(())
}
