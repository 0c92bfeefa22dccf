//! An interactive EXCESS shell over an in-memory database.
//!
//! ```sh
//! cargo run --example repl
//! ```
//!
//! Meta-commands are listed by `.help` (the text is generated from the
//! same [`COMMANDS`] table that dispatches them, so it cannot drift).
//! Anything else is executed as EXCESS (multi-statement input is fine;
//! statements may span lines — the shell submits on an empty line).

use excess::db::Database;
use std::io::{BufRead, Write};

/// One meta-command: its name, argument placeholder shown in `.help`, a
/// one-line description, and its handler.  Returning `false` quits.
struct MetaCommand {
    name: &'static str,
    args: &'static str,
    help: &'static str,
    run: fn(&mut Database, &str) -> bool,
}

/// The command table — `.help` output and dispatch both derive from it.
const COMMANDS: &[MetaCommand] = &[
    MetaCommand {
        name: ".help",
        args: "",
        help: "this text",
        run: cmd_help,
    },
    MetaCommand {
        name: ".objects",
        args: "",
        help: "list named top-level objects with their schemas",
        run: cmd_objects,
    },
    MetaCommand {
        name: ".plan",
        args: "<retrieve>",
        help: "show the initial and optimized algebra plans",
        run: cmd_plan,
    },
    MetaCommand {
        name: ".physical",
        args: "<retrieve>",
        help: "lower the optimized plan and show each kernel choice with estimated vs actual rows",
        run: cmd_physical,
    },
    MetaCommand {
        name: ".profile",
        args: "<retrieve>",
        help: "EXPLAIN ANALYZE: run the optimized plan with per-operator profiling",
        run: cmd_profile,
    },
    MetaCommand {
        name: ".trace",
        args: "<retrieve>",
        help: "show the optimizer's rewrite journal for the query",
        run: cmd_trace,
    },
    MetaCommand {
        name: ".verify",
        args: "<retrieve>",
        help: "statically verify the plan: all diagnostics (errors and lints) with node paths",
        run: cmd_verify,
    },
    MetaCommand {
        name: ".props",
        args: "<retrieve>",
        help: "derived plan properties per node: sort, cardinality bounds, keys, nullability",
        run: cmd_props,
    },
    MetaCommand {
        name: ".analyze",
        args: "",
        help: "recollect statistics from the stored data (ANALYZE)",
        run: cmd_analyze,
    },
    MetaCommand {
        name: ".stats",
        args: "[object]",
        help: "show optimizer statistics (rows, distinct, per-attribute NDVs)",
        run: cmd_stats,
    },
    MetaCommand {
        name: ".counters",
        args: "",
        help: "work counters of the last query",
        run: cmd_counters,
    },
    MetaCommand {
        name: ".metrics",
        args: "[json|reset]",
        help: "cumulative session metrics (queries, work, rules fired)",
        run: cmd_metrics,
    },
    MetaCommand {
        name: ".threads",
        args: "[N]",
        help: "set the worker count for parallel retrieves (1 = serial); no argument shows it",
        run: cmd_threads,
    },
    MetaCommand {
        name: ".telemetry",
        args: "[json|reset]",
        help: "session telemetry: counters, latency histograms (p50/p95/p99)",
        run: cmd_telemetry,
    },
    MetaCommand {
        name: ".slowlog",
        args: "[N_us|all|json]",
        help: "flight recorder: recent slow queries (set threshold with N_us)",
        run: cmd_slowlog,
    },
    MetaCommand {
        name: ".feedback",
        args: "[json]",
        help: "misestimation log: worst est-vs-actual cardinality errors",
        run: cmd_feedback,
    },
    MetaCommand {
        name: ".memo",
        args: "",
        help: "memo picture of the last plan search (groups, members, winner)",
        run: cmd_memo,
    },
    MetaCommand {
        name: ".reoptimize",
        args: "",
        help: "re-plan the last query from its observed cardinalities (feedback loop)",
        run: cmd_reoptimize,
    },
    MetaCommand {
        name: ".spans",
        args: "[on|off|json|chrome]",
        help: "query span traces: toggle, or export the last trace",
        run: cmd_spans,
    },
    MetaCommand {
        name: ".load",
        args: "university",
        help: "load the Figure 1 workload",
        run: cmd_load,
    },
    MetaCommand {
        name: ".dump",
        args: "",
        help: "print the schema as EXTRA DDL",
        run: cmd_dump,
    },
    MetaCommand {
        name: ".sweep",
        args: "",
        help: "garbage-collect unreachable objects",
        run: cmd_sweep,
    },
    MetaCommand {
        name: ".quit",
        args: "",
        help: "exit",
        run: cmd_quit,
    },
];

fn main() {
    let mut db = Database::new();
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    println!("EXCESS shell — .help for commands, empty line to submit.");
    print_prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !meta(&mut db, trimmed) {
                break;
            }
            print_prompt(&buffer);
            continue;
        }
        if trimmed.is_empty() {
            if !buffer.trim().is_empty() {
                match db.execute(&buffer) {
                    Ok(v) => println!("{}", excess::db::format_result(&v)),
                    Err(e) => println!("error: {e}"),
                }
            }
            buffer.clear();
        } else {
            buffer.push_str(&line);
            buffer.push('\n');
        }
        print_prompt(&buffer);
    }
}

fn print_prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("excess> ");
    } else {
        print!("   ...> ");
    }
    let _ = std::io::stdout().flush();
}

/// Dispatch a meta-command through the table; returns `false` to quit.
fn meta(db: &mut Database, cmd: &str) -> bool {
    let (head, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
    let head = if head == ".exit" { ".quit" } else { head };
    match COMMANDS.iter().find(|c| c.name == head) {
        Some(c) => (c.run)(db, rest.trim()),
        None => {
            println!("unknown command `{head}` — try .help");
            true
        }
    }
}

fn cmd_help(_db: &mut Database, _rest: &str) -> bool {
    let width = COMMANDS
        .iter()
        .map(|c| {
            c.name.len()
                + if c.args.is_empty() {
                    0
                } else {
                    c.args.len() + 1
                }
        })
        .max()
        .unwrap_or(0);
    for c in COMMANDS {
        let usage = if c.args.is_empty() {
            c.name.to_string()
        } else {
            format!("{} {}", c.name, c.args)
        };
        println!("  {usage:<width$}  {}", c.help);
    }
    true
}

fn cmd_objects(db: &mut Database, _rest: &str) -> bool {
    let mut names: Vec<&str> = db.catalog().names().collect();
    names.sort_unstable();
    for n in names {
        if let Some(s) = db.catalog().schema(n) {
            println!("  {n} : {s}");
        }
    }
    true
}

fn cmd_plan(db: &mut Database, rest: &str) -> bool {
    match db.plan_for(rest) {
        Ok(plan) => {
            println!("-- initial --\n{}", db.explain(&plan));
            let optimized = db.optimize_plan(&plan);
            if optimized != plan {
                println!("-- optimized --\n{}", db.explain(&optimized));
            }
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_physical(db: &mut Database, rest: &str) -> bool {
    match db.plan_for(rest) {
        Ok(plan) => {
            let plan = if db.optimize {
                db.optimize_plan_journaled(&plan).0
            } else {
                plan
            };
            let (physical, _) = db.lower_plan(&plan);
            print!("{}", physical.render());
            match db.run_lowered(&physical, excess::db::Tracing::Precise) {
                Ok(ran) => {
                    let profile = ran.profile.expect("tracing was enabled");
                    for (path, choice) in &physical.choices {
                        let actual = profile
                            .node(path)
                            .map(|n| n.rows_out.to_string())
                            .unwrap_or_else(|| "—".to_string());
                        let est = choice
                            .est_rows
                            .map(|r| format!("{r:.0}"))
                            .unwrap_or_else(|| "?".to_string());
                        println!(
                            "  {} {}: est rows={est} actual rows={actual}",
                            excess::algebra::path_string(path),
                            choice.op
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            }
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_profile(db: &mut Database, rest: &str) -> bool {
    match db.plan_for(rest) {
        Ok(plan) => {
            let plan = if db.optimize {
                db.optimize_plan_journaled(&plan).0
            } else {
                plan
            };
            match db.explain_analyze(&plan) {
                Ok(text) => print!("{text}"),
                Err(e) => println!("error: {e}"),
            }
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_trace(db: &mut Database, rest: &str) -> bool {
    match db.plan_for(rest) {
        Ok(plan) => {
            let (_, journal) = db.optimize_plan_journaled(&plan);
            if journal.steps.is_empty() {
                println!("no rewrites fired (cost {:.0})", journal.initial_cost);
            } else {
                for s in &journal.steps {
                    println!(
                        "  {} @ {:?}: cost {:.0} → {:.0}",
                        s.rule, s.path, s.cost_before, s.cost_after
                    );
                }
                println!(
                    "  {} plans enumerated (budget {}), cost {:.0} → {:.0}",
                    journal.plans_enumerated,
                    journal.max_plans,
                    journal.initial_cost,
                    journal.final_cost
                );
            }
            for r in &journal.refused {
                println!("  refused {} @ {:?}: {}", r.rule, r.path, r.reason);
            }
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_verify(db: &mut Database, rest: &str) -> bool {
    match db.plan_for(rest) {
        Ok(plan) => {
            let report = db.verify_plan(&plan);
            if report.diagnostics.is_empty() {
                println!("clean: no diagnostics");
            } else {
                for d in &report.diagnostics {
                    println!("  {d}");
                }
                println!(
                    "  {} error(s), {} lint(s)",
                    report.error_count(),
                    report.lint_count()
                );
            }
            if let Some(schema) = &report.schema {
                println!("  output schema: {schema}");
            }
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_props(db: &mut Database, rest: &str) -> bool {
    match db.plan_for(rest) {
        Ok(plan) => {
            let analysis = db.analyze_plan_props(&plan);
            print!("{}", analysis.render());
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_analyze(db: &mut Database, _rest: &str) -> bool {
    let n = db.analyze().objects.len();
    println!("statistics collected for {n} object(s) — see .stats");
    true
}

fn cmd_stats(db: &mut Database, rest: &str) -> bool {
    let stats = db.statistics();
    let mut names: Vec<&String> = stats.objects.keys().collect();
    names.sort_unstable();
    if !rest.is_empty() {
        names.retain(|n| n.as_str() == rest);
        if names.is_empty() {
            println!("no statistics for `{rest}` — run .analyze after loading data");
            return true;
        }
    } else if names.is_empty() {
        println!("no statistics collected yet — run .analyze");
        return true;
    }
    for n in names {
        let o = stats.object(n);
        println!(
            "  {n}: rows={:.0} distinct={:.0} (dup ×{:.1}) avg_nested={:.1}",
            o.rows,
            o.distinct,
            o.rows / o.distinct.max(1.0),
            o.avg_nested
        );
        for (attr, ndv) in &o.attr_ndv {
            println!("    ndv({attr}) = {ndv:.0}");
        }
    }
    true
}

fn cmd_counters(db: &mut Database, _rest: &str) -> bool {
    println!("  {}", db.last_counters());
    true
}

fn cmd_metrics(db: &mut Database, rest: &str) -> bool {
    match rest {
        "json" => println!("{}", excess::db::metrics_json(db.metrics())),
        "reset" => {
            db.reset_metrics();
            println!("session metrics reset");
        }
        _ => print!("{}", db.metrics()),
    }
    true
}

fn cmd_threads(db: &mut Database, rest: &str) -> bool {
    if rest.is_empty() {
        let cfg = db.exec_config();
        if cfg.is_parallel() {
            println!(
                "  {} workers, {} partitions per operator",
                cfg.workers, cfg.partitions
            );
            if let Some(report) = db.last_exec_report() {
                print!("{}", excess::db::render_parallel_execution(report));
            }
        } else {
            println!(
                "  serial execution (set with .threads N or ${})",
                excess::db::THREADS_ENV
            );
        }
        return true;
    }
    match rest.parse::<usize>() {
        Ok(n) if n >= 1 => {
            db.set_threads(n);
            if n == 1 {
                println!("serial execution");
            } else {
                println!("retrieves now run on {n} workers");
            }
        }
        _ => println!("usage: .threads [N]  (N >= 1)"),
    }
    true
}

fn cmd_telemetry(db: &mut Database, rest: &str) -> bool {
    match rest {
        "json" => println!("{}", db.telemetry().snapshot_json()),
        "reset" => {
            let t = db.telemetry_mut();
            t.registry.reset();
            t.feedback.reset();
            println!("telemetry reset");
        }
        _ => {
            let t = db.telemetry();
            for (name, v) in t.registry.counters() {
                println!("  {name}: {v}");
            }
            for (name, h) in t.registry.histograms() {
                println!(
                    "  {name}: n={} mean={:.0} p50={} p95={} p99={} max={}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max().unwrap_or(0)
                );
            }
            if t.registry.counters().next().is_none() && t.registry.histograms().next().is_none() {
                println!("  (no queries recorded yet)");
            }
        }
    }
    true
}

fn cmd_slowlog(db: &mut Database, rest: &str) -> bool {
    if rest == "json" {
        println!("{}", db.telemetry().recorder.to_json());
        return true;
    }
    if let Ok(us) = rest.parse::<u64>() {
        db.telemetry_mut().recorder.set_slow_threshold_us(us);
        println!("slow-query threshold set to {us} µs");
        return true;
    }
    let recorder = &db.telemetry().recorder;
    let records: Vec<_> = if rest == "all" {
        recorder.records().collect()
    } else {
        recorder.slow().collect()
    };
    if records.is_empty() {
        println!(
            "  no {}queries recorded (threshold {} µs; .slowlog all shows everything)",
            if rest == "all" { "" } else { "slow " },
            recorder.slow_threshold_us()
        );
    }
    for r in records {
        let phases: Vec<String> = r
            .phase_us
            .iter()
            .map(|(name, us)| format!("{name}={us}µs"))
            .collect();
        println!(
            "  [{}] {}µs rows={} {}  {}",
            r.engine,
            r.total_us(),
            r.rows,
            phases.join(" "),
            r.query.replace('\n', " ")
        );
    }
    true
}

fn cmd_feedback(db: &mut Database, rest: &str) -> bool {
    if rest == "json" {
        println!("{}", db.telemetry().feedback.to_json());
        return true;
    }
    let log = &db.telemetry().feedback;
    if log.is_empty() {
        println!("  no observations yet (run explain analyze or enable .spans)");
        return true;
    }
    println!("  worst cardinality misestimations (q-error = max(est/act, act/est)):");
    for e in log.worst(10) {
        println!(
            "  q={:.1}  {} {}  est {:.0} vs actual {:.0}  ({} obs, plan {:016x})",
            e.max_q_error,
            e.path,
            e.op,
            e.mean_est(),
            e.mean_actual(),
            e.observations,
            e.plan_hash
        );
    }
    true
}

fn cmd_memo(db: &mut Database, _rest: &str) -> bool {
    match db.last_memo() {
        Some(snapshot) => println!("{}", snapshot.render()),
        None => println!("no plan search yet: run a query first"),
    }
    true
}

fn cmd_reoptimize(db: &mut Database, _rest: &str) -> bool {
    match db.reoptimize_last() {
        Some(report) => print!("{}", report.render()),
        None => println!(
            "nothing to re-optimize: run a query under .spans on (or .profile it) \
             so the feedback log has observations for its plan"
        ),
    }
    true
}

fn cmd_spans(db: &mut Database, rest: &str) -> bool {
    match rest {
        "on" => {
            db.enable_query_spans(true);
            println!("query spans on — queries now run profiled");
        }
        "off" => {
            db.enable_query_spans(false);
            println!("query spans off");
        }
        "json" => match db.last_query_trace() {
            Some(t) => println!("{}", t.to_json()),
            None => println!("no trace yet (.spans on, then run a query)"),
        },
        "chrome" => match db.last_query_trace() {
            Some(t) => println!("{}", t.to_chrome_trace()),
            None => println!("no trace yet (.spans on, then run a query)"),
        },
        _ => match db.last_query_trace() {
            Some(t) => {
                println!("  last trace: {} spans, engine {}", t.len(), t.engine);
                print_span(&t.root, 1);
            }
            None => println!("usage: .spans on|off|json|chrome"),
        },
    }
    true
}

fn print_span(s: &excess::db::Span, depth: usize) {
    println!("{}{} ({} µs)", "  ".repeat(depth), s.name, s.dur_us);
    for c in &s.children {
        print_span(c, depth + 1);
    }
}

fn cmd_load(db: &mut Database, rest: &str) -> bool {
    if rest != "university" {
        println!("usage: .load university");
        return true;
    }
    match excess::workload::generate(&excess::workload::UniversityParams::default()) {
        Ok(u) => {
            let exec = db.exec_config();
            *db = u.db;
            db.set_exec_config(exec);
            println!("loaded the Figure 1 university database");
        }
        Err(e) => println!("error: {e}"),
    }
    true
}

fn cmd_dump(db: &mut Database, _rest: &str) -> bool {
    print!("{}", db.dump_schema());
    true
}

fn cmd_sweep(db: &mut Database, _rest: &str) -> bool {
    println!("collected {} unreachable objects", db.sweep());
    true
}

fn cmd_quit(_db: &mut Database, _rest: &str) -> bool {
    false
}
