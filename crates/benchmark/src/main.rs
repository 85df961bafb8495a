//! The `benchmark` command.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the contract)
//! benchmark run --seed <n[,n...]> --out <file> [--trace] [--quick]    every workload, one result file
//! benchmark compare <a.json> <b.json>                                  the regression table
//! ```

use benchmark::compare::{compare, render, Comparison, Verdict};
use benchmark::inputs::Scale;
use benchmark::json::Json;
use benchmark::report::{run_end_to_end, run_per_layer};
use benchmark::runner::{run, RunOptions};
use benchmark::spec::Workload;
use benchmark::workloads::Budget;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--spans <file>]
  benchmark run --seed <n[,n...]> --out <file> [--trace] [--quick]
  benchmark compare <a.json> <b.json>";

/// `--flag value` pairs and bare flags of a command line.
struct Args(Vec<String>);

impl Args {
    /// Removes `--name <value>` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|arg| arg == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    /// Removes `--name <value>`, parsed.
    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|text| {
                text.parse()
                    .map_err(|_| format!("{name}: cannot parse {text:?}"))
            })
            .transpose()
    }

    /// Removes a bare `--name` flag and reports whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|arg| arg != name);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// Contract mode: one workload, one result line.
fn one_workload(mut args: Args) -> Result<ExitCode, String> {
    let name = args
        .value("--workload")?
        .ok_or("--workload needs a value")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = args.parsed::<u64>("--seed")?.ok_or("--seed is required")?;
    let budget = match args.parsed::<f64>("--seconds")? {
        Some(s) if s > 0.0 && s <= 3600.0 => Budget::Seconds(s),
        Some(_) => return Err("--seconds must be in (0, 3600]".to_owned()),
        None => return Err("--seconds is required".to_owned()),
    };
    let traced = match args.value("--trace")?.as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    let scale = if args.flag("--quick") {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    let spans = args.value("--spans")?.map(PathBuf::from);
    args.finish()?;

    let report = if traced {
        run_per_layer(workload, seed, budget, scale, spans.as_deref())
            .map_err(|e| format!("cannot write the trace: {e}"))?
    } else {
        run_end_to_end(workload, seed, budget, scale)
    };
    println!(
        "{}",
        Json::object()
            .with("detail", report.detail.clone())
            .to_line()
    );
    // The contract: the result object is the last line of standard output.
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

fn run_all(mut args: Args) -> Result<ExitCode, String> {
    // One set of workloads per seed; a repeated seed measures run-to-run
    // noise on identical inputs.
    let seeds = args
        .value("--seed")?
        .ok_or("--seed is required")?
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("--seed: cannot parse {s:?}"))
        })
        .collect::<Result<Vec<u64>, _>>()?;
    let options = RunOptions {
        seeds,
        trace: args.flag("--trace"),
        quick: args.flag("--quick"),
        out: args
            .value("--out")?
            .map(PathBuf::from)
            .ok_or("--out is required")?,
    };
    args.finish()?;
    let failed = run(&options)?;
    if failed > 0 {
        eprintln!("benchmark: {failed} operations failed the correctness check");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: Args) -> Result<ExitCode, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("compare takes exactly two result files".to_owned());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let Comparison { rows, notes } = compare(&load(a)?, &load(b)?)?;
    print!("{}", render(&rows));
    for note in notes {
        println!("note: {note}");
    }
    let count = |verdict| rows.iter().filter(|row| row.verdict == verdict).count();
    let worse = count(Verdict::Worse);
    println!(
        "{} rows: {worse} worse, {} unresolved",
        rows.len(),
        count(Verdict::Unresolved)
    );
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|arg| arg == "--workload") {
        one_workload(Args(args))
    } else {
        match (!args.is_empty()).then(|| args.remove(0)).as_deref() {
            Some("run") => run_all(Args(args)),
            Some("compare") => compare_files(Args(args)),
            _ => Err(USAGE.to_owned()),
        }
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
