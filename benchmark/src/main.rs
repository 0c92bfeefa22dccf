//! `served-retrieve`: the repository's benchmark.
//!
//! A served `retrieve` crosses wire → parse → translate → optimize →
//! lower → execute → canon → serialize.  This tool measures that path end
//! to end over a loopback socket (`--trace 0`) and layer by layer from
//! outside (`--trace 1`), on four seeded workloads.  See `README.md` for
//! why the workloads and metrics are what they are.
//!
//! ```text
//! served-retrieve --workload W --seed N --seconds S --trace 0|1   one run; the last line is its result
//! served-retrieve [--seed N] [--seconds S] [--out F]              the suite: every workload, every metric
//! served-retrieve --smoke                                         the suite at 1/20 length
//! served-retrieve --compare BEFORE.json AFTER.json                two suite files, row by row
//! served-retrieve --calibrate                                     set the bounds in BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod endtoend;
mod layers;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: served-retrieve [--workload NAME --trace 0|1] [--seed N] \
                     [--seconds S] [--out FILE] [--smoke] \
                     | --compare BEFORE AFTER | --calibrate";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    calibrate: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} {v} is not a number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(number(&flag, value()?)?),
            "--seconds" => args.seconds = Some(number(&flag, value()?)?),
            "--trace" => args.trace = number::<u8>(&flag, value()?)? != 0,
            "--out" => args.out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--calibrate" => args.calibrate = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Set in the environment of the copy of this process that `taskset`
/// confined.
const CONFINED: &str = "SERVED_RETRIEVE_CPU";

/// Run this same command again under `taskset`, on the last CPU this
/// process may use, and return its exit code.
///
/// A closed-loop client and its server thread never run at the same time,
/// so one CPU serves them as well as two — unless the scheduler puts them
/// on different CPUs, and in this sandbox a wake-up on another CPU costs
/// about 100 µs, half a probe request.  It changes its mind in the middle
/// of a run: on two CPUs `mixed_rw` read three rounds at a p50 of 360 µs
/// and the next three at 225 µs.  There is no unconfined way to run:
/// without `taskset` the run fails.
fn confined() -> Result<ExitCode, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?
        .trim();
    let cpu = allowed.rsplit([',', '-']).next().unwrap_or(allowed);
    let status = std::process::Command::new("taskset")
        .args(["-c", cpu])
        .arg(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(std::env::args_os().skip(1))
        .env(CONFINED, cpu)
        .status()
        .map_err(|e| format!("taskset, which confines a run to CPU {cpu}, did not start: {e}"))?;
    Ok(ExitCode::from(status.code().unwrap_or(1) as u8))
}

fn run() -> Result<ExitCode, String> {
    let verdict = |held: bool| {
        if held {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    let args = parse_args()?;
    if let Some((before, after)) = &args.compare {
        return report::compare(before, after).map(verdict);
    }
    if args.calibrate {
        return report::calibrate().map(verdict);
    }
    let default_seconds = || report::load_spec().map(|s| s.run_seconds);
    let seconds = match args.seconds {
        Some(s) if s > 0.0 => s,
        Some(s) => return Err(format!("--seconds {s} is not a duration")),
        None if args.smoke => default_seconds()? / 20.0,
        None => default_seconds()?,
    };
    let seed = args.seed.unwrap_or(1);

    let Some(name) = &args.workload else {
        return report::suite(&report::SuiteArgs {
            seed,
            seconds,
            out: args
                .out
                .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out/suite.json")),
            smoke: args.smoke,
        })
        .map(verdict);
    };
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    if std::env::var_os(CONFINED).is_none() {
        return confined();
    }
    let cfg = endtoend::RunConfig {
        workload,
        seed,
        seconds,
        smoke: args.smoke,
    };
    let result = if args.trace {
        layers::run(&cfg)?
    } else {
        endtoend::run(&cfg)?
    };
    report::print_run(name, &result);
    println!("{}", report::result_line(&result));
    // A run that measured wrong answers still exits 0: its result line
    // says `"correct":false` and counts the failures.
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    run().unwrap_or_else(|message| {
        eprintln!("served-retrieve: {message}");
        ExitCode::from(2)
    })
}
