//! The benchmark against its own contract, at 1/20 length: the suite
//! prints every metric and workload `BENCHMARK.json` names exactly once
//! with its unit, a single run ends in the one-line result the driver
//! reads, and the exact counts repeat for a seed.

use excess_core::json::{parse_json, JsonValue};
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_served-retrieve");

fn spec() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(spec: &JsonValue, list: &str) -> Vec<(String, Option<String>)> {
    let text = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(String::from);
    spec.get(list)
        .and_then(JsonValue::as_arr)
        .expect(list)
        .iter()
        .map(|entry| (text(entry, "name").expect("name"), text(entry, "unit")))
        .collect()
}

fn stdout_of(args: &[&str]) -> String {
    let output = Command::new(EXE)
        .args(args)
        .output()
        .expect("running the benchmark");
    assert!(
        output.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

/// The metrics object of a run's last output line.
fn result_of(args: &[&str]) -> JsonValue {
    let stdout = stdout_of(args);
    let result = parse_json(stdout.lines().last().expect("a result line")).expect("valid JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
    result.get("metrics").expect("metrics").clone()
}

#[test]
fn the_suite_prints_every_declared_metric_and_workload_once_with_its_unit() {
    let spec = spec();
    let out =
        std::env::temp_dir().join(format!("served-retrieve-smoke-{}.json", std::process::id()));
    let stdout = stdout_of(&["--smoke", "--out", out.to_str().expect("a UTF-8 path")]);
    let workloads: Vec<String> = names(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let lines: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    for list in ["end_to_end", "per_layer"] {
        for (name, unit) in names(&spec, list) {
            let rows: Vec<&Vec<&str>> = lines
                .iter()
                .filter(|l| l.first() == Some(&name.as_str()))
                .collect();
            assert_eq!(rows.len(), 1, "{name} is printed {} times", rows.len());
            assert_eq!(rows[0].get(1).copied(), unit.as_deref(), "{name}'s unit");
            // One value per workload follows the unit.
            assert!(
                rows[0].len() >= 2 + workloads.len(),
                "{name}: {:?}",
                rows[0]
            );
        }
    }
    // Each table's header names every workload, in the declared order.
    let headers: Vec<&Vec<&str>> = lines
        .iter()
        .filter(|l| l.first() == Some(&"metric"))
        .collect();
    assert_eq!(headers.len(), 2, "one table per kind of metric");
    for header in headers {
        assert_eq!(
            header[2..],
            workloads.iter().map(String::as_str).collect::<Vec<_>>()
        );
    }

    // The suite file holds what `--compare` reads, and comparing it with
    // itself finds nothing changed.
    let out = out.to_str().expect("a UTF-8 path");
    let compared = stdout_of(&["--compare", out, out]);
    assert!(!compared.contains("regressed") && !compared.contains("unresolved"));
    assert!(compared.contains("unchanged"));
    std::fs::remove_file(out).expect("removing the suite file");
}

#[test]
fn a_run_reports_exactly_the_declared_metrics_of_its_kind() {
    let spec = spec();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = result_of(&[
            "--workload",
            "mixed_rw",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        let reported: Vec<(String, Option<String>)> = metrics
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                let unit = m.get("unit").and_then(JsonValue::as_str).map(String::from);
                (name.clone(), unit)
            })
            .collect();
        assert_eq!(reported, names(&spec, list), "--trace {trace}");
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let exact = [
        "core.eval.occurrences_scanned",
        "core.eval.comparisons",
        "core.eval.derefs",
        "core.eval.pairs_formed",
        "core.eval.de_input_occurrences",
        "optimizer.plans_enumerated",
        "optimizer.memo_members",
        "db.json.bytes",
    ];
    let counts = |seed: &str| -> Vec<f64> {
        let metrics = result_of(&[
            "--workload",
            "objects",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "1",
            "--smoke",
        ]);
        exact
            .iter()
            .map(|name| {
                let value = metrics.get(name).and_then(|m| m.get("value"));
                value.and_then(JsonValue::as_f64).expect(name)
            })
            .collect()
    };
    let first = counts("11");
    assert_eq!(first, counts("11"), "same seed, same counts");
    assert!(first.iter().any(|&c| c > 0.0));
    // The university is generated from the seed, so its counts move.
    assert_ne!(first, counts("12"), "another seed, other data");
}
