//! What the benchmark prints and compares: the one-line result of a run,
//! the suite's tables and layer-separation checks, `--compare` between two
//! suite files, and `--calibrate` for the bounds in `BENCHMARK.json`.

use crate::endtoend::RunResult;
use crate::layers::{parse_json, quote_json, JsonValue};
use crate::stats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the tool reads.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("no `{key}` in {v:?}"))
}

fn text(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn items<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not a list"))
}

pub fn load_spec() -> Result<Spec, String> {
    let path = spec_path();
    let source =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = parse_json(&source)?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        items(&json, key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    higher_is_better: text(m, "better")? == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: field(&json, "run_seconds")?
            .as_f64()
            .ok_or("`run_seconds` is not a number")?,
        workloads: items(&json, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The last line of a run's standard output.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote_json(name),
                s.value,
                quote_json(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

/// A run's metrics for the operator, each with how far the medians of the
/// rounds it was taken from differ and the samples it rests on.
pub fn print_run(workload: &str, result: &RunResult) {
    eprintln!(
        "{workload}: {} attempted, {} failed",
        result.attempted, result.failed
    );
    for (name, unit, s) in &result.metrics {
        eprintln!(
            "  {name:<32} {:>14.4} {unit:<6} spread {:>5.1}%  n={}",
            s.value,
            s.spread * 100.0,
            s.samples
        );
    }
}

/// One child run as the suite keeps it.
struct Run {
    workload: String,
    trace: bool,
    failed: f64,
    attempted: f64,
    metrics: Vec<(String, f64)>,
    line: String,
}

impl Run {
    /// From a run's result line, as printed or as a suite file keeps it.
    fn new(workload: &str, trace: bool, result: &JsonValue, line: &str) -> Result<Run, String> {
        let number = |v: &JsonValue, key: &str| {
            field(v, key)?
                .as_f64()
                .ok_or(format!("`{key}` is not a number"))
        };
        let metrics = field(result, "metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| Ok((name.clone(), number(m, "value")?)))
            .collect::<Result<_, String>>()?;
        Ok(Run {
            workload: workload.to_string(),
            trace,
            failed: number(result, "failed")?,
            attempted: number(result, "attempted")?,
            metrics,
            line: line.to_string(),
        })
    }
}

/// Every workload runs in a process of its own, so `peak_rss_mb` is the
/// workload's and one workload's allocations do not warm another's.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    Run::new(workload, trace, &parse_json(line)?, line)
}

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub out: PathBuf,
    pub smoke: bool,
}

/// Values of `metric` on `workload` over the runs of one kind.
fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

fn table(out: &mut String, spec: &Spec, runs: &[Run], trace: bool) {
    let metrics = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let _ = write!(out, "{:<32} {:<6}", "metric", "unit");
    for w in &spec.workloads {
        let _ = write!(out, " {w:>20}");
    }
    out.push('\n');
    let mut row = |name: &str, unit: &str, cell: &dyn Fn(&str) -> Vec<f64>| {
        let _ = write!(out, "{name:<32} {unit:<6}");
        for w in &spec.workloads {
            let v = cell(w);
            let shown = match v.len() {
                0 => "-".to_string(),
                1 => format!("{:.4}", v[0]),
                _ => format!(
                    "{:.4} ±{:.1}%",
                    stats::median(&v),
                    stats::rel_range(&v) * 100.0
                ),
            };
            let _ = write!(out, " {shown:>20}");
        }
        out.push('\n');
    };
    for m in metrics {
        row(&m.name, &m.unit, &|w| values(runs, w, trace, &m.name));
    }
    if !trace {
        row("failed_ratio", "ratio", &|w| {
            let of = |f: fn(&Run) -> f64| -> f64 {
                runs.iter().filter(|r| r.workload == w).map(f).sum()
            };
            vec![of(|r| r.failed) / of(|r| r.attempted).max(1.0)]
        });
    }
}

/// The predictions the workloads were chosen on, checked on the traced
/// runs: each workload must load the layers it was built to load.
fn checks(out: &mut String, runs: &[Run]) -> bool {
    let get = |w: &str, m: &str| {
        values(runs, w, true, m)
            .first()
            .copied()
            .unwrap_or(f64::NAN)
    };
    let share = |w: &str, layers: &[&str]| {
        layers.iter().map(|l| get(w, l)).sum::<f64>() / get(w, "trace.request_us")
    };
    let front = [
        "server.wire_us",
        "db.session.glue_us",
        "lang.parse_us",
        "lang.translate_us",
        "optimizer.search_us",
        "optimizer.lower_us",
    ];
    let serialize = |w: &str| get(w, "core.canon_us") + get(w, "db.json_us");
    let eval_analytic = share("analytic", &["core.eval_us"]);
    let eval_probe = share("probe", &["core.eval_us"]);
    let front_probe = share("probe", &front);
    let derefs = get("objects", "core.eval.derefs");
    let (out_objects, out_probe) = (serialize("objects"), serialize("probe"));
    let commits = get("mixed_rw", "db.committer.commits");
    let failures: f64 = runs.iter().map(|r| r.failed).sum();
    let mut verdicts = vec![
        (
            eval_analytic >= 0.90,
            format!(
                "analytic: core.eval_us is {:.0}% of a request (>= 90%)",
                eval_analytic * 100.0
            ),
        ),
        (
            eval_probe <= 0.65,
            format!(
                "probe: core.eval_us is {:.0}% of a request (<= 65%)",
                eval_probe * 100.0
            ),
        ),
        (
            front_probe >= 0.35,
            format!(
                "probe: wire + glue + lang + optimizer are {:.0}% of a request (>= 35%)",
                front_probe * 100.0
            ),
        ),
        (derefs > 0.0, format!("objects: {derefs} derefs (> 0)")),
        (
            out_objects > out_probe,
            format!(
                "objects: canon + json take {out_objects:.1} us, more than probe's {out_probe:.1} us"
            ),
        ),
        (
            commits >= 1000.0,
            format!("mixed_rw: {commits} commits (>= 1000)"),
        ),
        (failures == 0.0, format!("{failures} failed operations (0)")),
    ];
    for w in ["probe", "analytic", "objects", "mixed_rw"] {
        let sum = get(w, "layer.sum_ratio");
        verdicts.push((
            (0.9..=1.1).contains(&sum),
            format!("{w}: layer self times sum to {sum:.3} of a request (0.9 to 1.1)"),
        ));
    }
    let mut all = true;
    for (pass, what) in verdicts {
        let _ = writeln!(out, "{} {what}", if pass { "PASS" } else { "FAIL" });
        all &= pass;
    }
    all
}

/// Run every workload — three untraced runs (one in a smoke run) and one
/// traced run each — print every metric by name with its unit, check the
/// predictions, and keep the results for `--compare`.  Returns whether
/// everything held.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let spec = load_spec()?;
    let untraced = if args.smoke { 1 } else { 3 };
    let mut runs = Vec::new();
    for run in 0..untraced {
        for w in &spec.workloads {
            eprintln!("--- {w}: untraced run {} of {untraced}", run + 1);
            runs.push(child(w, args.seed, args.seconds, false, args.smoke)?);
        }
    }
    for w in &spec.workloads {
        eprintln!("--- {w}: traced run");
        runs.push(child(w, args.seed, args.seconds, true, args.smoke)?);
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "served-retrieve: seed {}, {} s per run, {untraced} untraced runs and 1 traced run per \
         workload, each confined to one of {cores} CPUs\n\nend to end (tracing off; median of the runs, ± (max-min)/median)\n",
        args.seed, args.seconds
    );
    table(&mut out, &spec, &runs, false);
    out.push_str("\nper layer (traced run; _us are p50 self times per request)\n");
    table(&mut out, &spec, &runs, true);
    out.push_str("\nchecks\n");
    // A smoke run is too short for the commit count and the shares.
    let held = checks(&mut out, &runs) || args.smoke;
    print!("{out}");

    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":{},\"trace\":{},\"result\":{}}}",
                quote_json(&r.workload),
                r.trace,
                r.line
            )
        })
        .collect();
    let file = format!(
        "{{\"seed\":{},\"seconds\":{},\"runs\":[\n{}\n]}}\n",
        args.seed,
        args.seconds,
        entries.join(",\n")
    );
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&args.out, file).map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    eprintln!("results: {}", args.out.display());
    Ok(held && runs.iter().all(|r| r.failed == 0.0))
}

fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = parse_json(&source)?;
    items(&json, "runs")?
        .iter()
        .map(|entry| {
            let trace = field(entry, "trace")?
                .as_bool()
                .ok_or("`trace` is not a bool")?;
            Run::new(
                &text(entry, "workload")?,
                trace,
                field(entry, "result")?,
                "",
            )
        })
        .collect()
}

/// How `after` stands to `before` on one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side disagree by more than the bound, so a change
    /// within it cannot be told from noise.
    Unresolved,
}

pub fn verdict(before: &[f64], after: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let spread = [before, after]
        .iter()
        .filter(|v| v.len() > 1)
        .map(|v| stats::rel_range(v))
        .fold(0.0, f64::max);
    let (a, b) = (stats::median(before), stats::median(after));
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row per (end-to-end metric, workload): both medians, the ratio
/// with its base, the bound and the verdict.  Returns whether no row
/// regressed or stayed unresolved.
pub fn compare(before: &Path, after: &Path) -> Result<bool, String> {
    let spec = load_spec()?;
    let (a, b) = (load_runs(before)?, load_runs(after)?);
    println!(
        "{:<16} {:<10} {:>14} {:>14} {:>22} {:>6}  verdict",
        "metric", "workload", "before", "after", "after/before", "bound"
    );
    let mut clean = true;
    for m in &spec.end_to_end {
        for w in &spec.workloads {
            let (va, vb) = (values(&a, w, false, &m.name), values(&b, w, false, &m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} on {w} is missing from one side", m.name));
            }
            let bound = m.bound.unwrap_or(0.0);
            let verdict = verdict(&va, &vb, m.higher_is_better, bound);
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<16} {:<10} {:>14.4} {:>14.4} {:>22} {:>6.2}  {}",
                m.name,
                w,
                ma,
                mb,
                format!("{:.3} of {:.4} {}", mb / ma, ma, m.unit),
                bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(clean)
}

/// Set the bounds in `BENCHMARK.json` the way they are judged: one
/// untraced run per workload on each of ten seeds; a metric's spread is the
/// distance between the quartiles of its ten values as a share of their
/// median, on the workload where that is widest; its bound is three times
/// that spread, between 0.10 and the 0.25 a bound may be at most.  A metric
/// whose spread itself is over that ceiling cannot be gated: its bound is
/// left alone and the calibration fails.  `setup_s` is not calibrated.
pub fn calibrate() -> Result<bool, String> {
    const SEEDS: u64 = 10;
    const FLOOR: f64 = 0.10;
    const CEILING: f64 = 0.25;
    let spec = load_spec()?;
    let mut runs = Vec::new();
    for seed in 1..=SEEDS {
        for w in &spec.workloads {
            eprintln!("--- calibrating on {w}, seed {seed}");
            runs.push(child(w, seed, spec.run_seconds, false, false)?);
        }
    }
    let path = spec_path();
    let mut source = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let mut all_fit = true;
    // `setup_s` keeps the ceiling: the contract gives it the largest bound.
    for m in spec.end_to_end.iter().filter(|m| m.name != "setup_s") {
        let (spread, widest) = spec
            .workloads
            .iter()
            .map(|w| (stats::quartile_spread(&values(&runs, w, false, &m.name)), w))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .ok_or("no workloads")?;
        let bound = ((3.0 * spread).clamp(FLOOR, CEILING) * 100.0).ceil() / 100.0;
        let fits = spread <= CEILING;
        all_fit &= fits;
        println!(
            "{:<16} quartile spread {:>5.1}% on {widest:<9} {}",
            m.name,
            spread * 100.0,
            if fits {
                format!("bound {bound:.2}")
            } else {
                "too noisy to gate: demote it to per_layer".to_string()
            }
        );
        if !fits {
            continue;
        }
        // BENCHMARK.json keeps one metric per line, its bound last.
        let name = format!("\"name\": {}", quote_json(&m.name));
        source = source
            .lines()
            .map(|line| match line.split_once("\"bound\": ") {
                Some((head, tail)) if line.contains(&name) => {
                    let rest = &tail[tail.find('}').unwrap_or(tail.len())..];
                    format!("{head}\"bound\": {bound:.2}{rest}\n")
                }
                _ => format!("{line}\n"),
            })
            .collect();
    }
    std::fs::write(&path, source).map_err(|e| e.to_string())?;
    Ok(all_fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = |a: &[f64], b: &[f64]| verdict(a, b, false, 0.10);
        assert_eq!(lower(&[100.0], &[105.0]), Verdict::Unchanged);
        assert_eq!(lower(&[100.0], &[111.0]), Verdict::Regressed);
        assert_eq!(lower(&[100.0], &[89.0]), Verdict::Improved);
        // Throughput: lower is worse.
        assert_eq!(verdict(&[100.0], &[89.0], true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[100.0], &[120.0], true, 0.10), Verdict::Improved);
        // Runs of one side 20 % apart cannot resolve a 10 % bound.
        assert_eq!(
            lower(&[100.0, 110.0, 120.0], &[100.0, 101.0, 102.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            lower(&[100.0, 101.0, 102.0], &[100.0, 101.0, 102.0]),
            Verdict::Unchanged
        );
    }
}
