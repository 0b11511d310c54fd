//! The repo's wall-clock benchmark. See `README.md` next to this crate.
//!
//! ```text
//! sparker-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! sparker-benchmark [--workload NAME] [--seed N] [--seconds S] [--runs R]
//!                                      every workload, untraced then traced
//! sparker-benchmark --compare A.json B.json                 bounds over two full runs
//! sparker-benchmark --workload NAME --seed N --seconds S --instance
//!                                      (internal) one instance of an untraced pass
//! sparker-benchmark --executor ADDR                         (internal) TCP executor
//! ```

mod compare;
mod harness;
mod jobs;
mod json;
mod mesh;
mod names;
mod probes;
mod spans;
mod stats;
mod tcp;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use sparker_obs::json::Json;

use crate::harness::{nproc, RunResult, Workload};
use crate::json::Value;
use crate::names::WORKLOADS;
use crate::stats::median;

/// Where a full run writes `results.json` and the traces, relative to the
/// directory `run.sh` starts the binary in (the repo root).
const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;
/// Hard deadline of a traced pass beyond its measuring time: set-up, oracle,
/// the probes' overrun and tear-down all fit in it many times over.
const PASS_SLACK: Duration = Duration::from_secs(90);
/// The same for one instance process of an untraced pass, which has only
/// set-up, oracle, verification and tear-down besides its window.
const INSTANCE_SLACK: Duration = Duration::from_secs(30);
/// Exit code when the deadline fires, distinct from a wrong result (1).
const EXIT_DEADLINE: i32 = 86;

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match arg_after(args, flag) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("{flag}: cannot parse `{s}`")),
    }
}

/// A pass or instance that outlives its deadline kills its executor
/// children and exits with `EXIT_DEADLINE`. The watchdog thread is
/// deliberately never joined: it only matters if the run hangs.
fn arm_deadline(what: String, deadline: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("{what}: exceeded its {deadline:?} deadline, killing executors and exiting");
        tcp::kill_children();
        std::process::exit(EXIT_DEADLINE);
    });
}

/// What one invocation with `--workload` does.
enum Mode {
    /// `--trace 0`: pool several instance processes.
    Untraced,
    /// `--trace 1`: one instance in-process, then the probes.
    Traced,
    /// `--instance` (internal): measure one instance, print its report.
    Instance,
}

/// Runs this binary again with `args`, passing its standard error through,
/// and returns its standard output split into the body and the last line.
fn rerun(args: &[&str]) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `{}`: {e}", args.join(" ")))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if out.status.success() {
        Ok((body.to_string(), last.to_string()))
    } else {
        println!("{body}");
        Err(format!("`{}` exited with {}", args.join(" "), out.status))
    }
}

fn run_mode<W: Workload>(mode: &Mode, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let result = match mode {
        Mode::Instance => {
            arm_deadline(
                format!("{} instance", W::NAME),
                Duration::from_secs_f64(seconds) + INSTANCE_SLACK,
            );
            println!("{}", harness::instance_report::<W>(seed, seconds).render());
            return Ok(ExitCode::SUCCESS);
        }
        // Every instance process guards its own deadline.
        Mode::Untraced => harness::untraced_pass::<W>(seconds, |each| {
            let (seed, each) = (seed.to_string(), each.to_string());
            let (_, report) = rerun(&[
                "--workload",
                W::NAME,
                "--seed",
                &seed,
                "--seconds",
                &each,
                "--instance",
            ])?;
            sparker_obs::json::parse(&report).map_err(|e| format!("bad instance report: {e}"))
        })?,
        Mode::Traced => {
            arm_deadline(
                W::NAME.to_string(),
                Duration::from_secs_f64(seconds) + PASS_SLACK,
            );
            harness::traced_pass::<W>(
                seed,
                seconds,
                Path::new(OUT_DIR),
                |ledger, recorder, budget| probes::run_all(ledger, recorder, budget, seed),
            )
        }
    };
    Ok(print_result(&result))
}

fn run_workload(name: &str, mode: &Mode, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    match name {
        "dense_large" => run_mode::<mesh::DenseLarge>(mode, seed, seconds),
        "sparse_grad" => run_mode::<mesh::SparseGrad>(mode, seed, seconds),
        "small_jobs" => run_mode::<jobs::SmallJobs>(mode, seed, seconds),
        "lda_train" => run_mode::<mesh::LdaTrain>(mode, seed, seconds),
        "tcp_small_jobs" => run_mode::<tcp::TcpSmallJobs>(mode, seed, seconds),
        "tcp_large_jobs" => run_mode::<tcp::TcpLargeJobs>(mode, seed, seconds),
        _ => Err(format!(
            "unknown workload `{name}`; known: {:?}",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        )),
    }
}

/// Human-readable metric lines, then the result object as the last line of
/// standard output.
fn print_result(result: &RunResult) -> ExitCode {
    for (d, v) in &result.metrics {
        println!(
            "{:<16} {:<44} {v:>16.4} {:<9} ({} is better)",
            result.workload, d.name, d.unit, d.better
        );
    }
    let metrics = Value::obj(result.metrics.iter().map(|(d, v)| {
        (
            d.name,
            Value::obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(d.unit.into())),
            ]),
        )
    }));
    let line = Value::obj([
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Int(result.attempted)),
        ("failed", Value::Int(result.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} ops failed or the run did not verify",
            result.workload, result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs one pass of one workload in a process of its own, echoing its metric
/// lines, and returns its parsed result line.
fn child_pass(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let (body, last) = rerun(&[
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    println!("{body}");
    sparker_obs::json::parse(&last).map_err(|e| format!("{name}: bad result line: {e}"))
}

/// Folds the result lines of `runs` passes into `{name: {unit, value, values}}`
/// with `value` the median.
fn fold_passes(passes: &[Json]) -> Value {
    let Some(Json::Obj(first)) = passes.first().and_then(|p| p.get("metrics")) else {
        return Value::obj::<String>([]);
    };
    Value::obj(first.iter().map(|(name, m)| {
        let mut values: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let all = Value::Arr(values.iter().map(|v| Value::Num(*v)).collect());
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let fields = [
            ("unit", Value::Str(unit)),
            ("value", Value::Num(median(&mut values))),
            ("values", all),
        ];
        (name.clone(), Value::obj(fields))
    }))
}

/// Every workload (or the one named), each pass in a fresh process: the
/// untraced pass for the end-to-end metrics, then the traced one. A pass
/// that does not verify ends the run, so what gets written is all correct.
fn full_run(only: Option<&str>, seed: u64, seconds: f64, runs: usize) -> Result<(), String> {
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS
        .iter()
        .filter(|(n, _)| only.is_none_or(|o| o == *n))
    {
        let mut passes: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..runs {
            for trace in [false, true] {
                passes[usize::from(trace)].push(child_pass(name, seed, seconds, trace)?);
            }
        }
        let count = |key: &str| -> u64 {
            passes[0]
                .iter()
                .filter_map(|p| p.get(key)?.as_f64())
                .sum::<f64>() as u64
        };
        workloads.push((
            *name,
            Value::obj([
                ("attempted", Value::Int(count("attempted"))),
                ("failed", Value::Int(count("failed"))),
                ("end_to_end", fold_passes(&passes[0])),
                ("per_layer", fold_passes(&passes[1])),
            ]),
        ));
    }
    if workloads.is_empty() {
        return Err(format!("unknown workload `{}`", only.unwrap_or("")));
    }
    let results = Value::obj([
        ("seed", Value::Int(seed)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Int(runs as u64)),
        ("nproc", Value::Int(nproc() as u64)),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, results.render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} and one trace-<workload>.json per workload in {OUT_DIR}",
        path.display()
    );
    Ok(())
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    if let Some(addr) = arg_after(args, "--executor") {
        tcp::run_executor(&addr)?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(a) = arg_after(args, "--compare") {
        let b = args
            .iter()
            .position(|x| x == "--compare")
            .and_then(|i| args.get(i + 2))
            .ok_or("--compare needs two result files")?;
        let worse = compare::run("BENCHMARK.json", &a, b)?;
        return Ok(if worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let seed = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let workload = arg_after(args, "--workload");
    let mode = match arg_after(args, "--trace").as_deref() {
        _ if args.iter().any(|a| a == "--instance") => Some(Mode::Instance),
        Some("0") => Some(Mode::Untraced),
        Some("1") => Some(Mode::Traced),
        Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        None => None,
    };
    match mode {
        Some(mode) => {
            let name = workload.ok_or("--trace needs --workload NAME")?;
            run_workload(&name, &mode, seed, seconds)
        }
        None => {
            let runs = parsed(args, "--runs", 1usize)?.max(1);
            full_run(workload.as_deref(), seed, seconds, runs)?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("sparker-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
