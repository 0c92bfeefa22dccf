//! Regenerate the per-figure experiment tables recorded in EXPERIMENTS.md.
//!
//! Prints one markdown section per experiment id with measured wall time
//! (median of repeated runs) and, where the paper's claim is about *work*
//! rather than time, the relevant evaluator counters.  Run with
//! `cargo run --release -p excess-bench --bin report`.
//!
//! Besides the markdown on stdout, every measurement is collected into
//! `BENCH_report.json` (figure id → ms + work counters, plus the Example 1
//! per-operator attribution profiles and the optimizer's rewrite journal),
//! so scripts can read the numbers without scraping tables.
//!
//! Every invariant a section's claim rests on is an `assert!` next to the
//! code that computes it, so a clean exit is the check (CI runs it as one).

#![forbid(unsafe_code)]

use excess_bench::dispatch::{
    dispatch_db, expensive_impls, index_extents, indexed_union_plan, switch_plan, trivial_impls,
    union_plan,
};
use excess_bench::example1::{example1_db, figure6, figure7, figure8, figure8_canonical};
use excess_bench::example2::{example2_db, figure10, figure11, figure9};
use excess_bench::server_mix::{server_mix_db, ANALYTIC_JOINS, MIX};
use excess_bench::{array_db, time_median, time_once};
use excess_core::canon::canonical_form;
use excess_core::eval::reads_in_place;
use excess_core::expr::Expr;
use excess_core::physical::{PhysOp, PhysicalPlan};
use excess_core::profile::Profile;
use excess_core::Counters;
use excess_db::{
    counters_json, escape_json, journal_json, profile_json, verify_json, Database, Tracing,
};
use excess_types::{domain::exact_type_of, multiset::naive, MultiSet, Value};
use excess_workload::{generate, queries, UniversityParams};

const REPS: usize = 5;

/// Collects every measurement for the machine-readable report.
struct Report {
    /// (figure id, median ms, counters of one run)
    figures: Vec<(String, f64, Counters)>,
    /// Extra pre-serialized JSON documents, keyed.
    extras: Vec<(String, String)>,
}

impl Report {
    fn new() -> Self {
        Report {
            figures: Vec::new(),
            extras: Vec::new(),
        }
    }

    fn record(&mut self, id: impl Into<String>, ms: f64, c: Counters) {
        self.figures.push((id.into(), ms, c));
    }

    fn extra(&mut self, key: impl Into<String>, json: String) {
        self.extras.push((key.into(), json));
    }

    fn to_json(&self) -> String {
        let figs: Vec<String> = self
            .figures
            .iter()
            .map(|(id, ms, c)| {
                format!(
                    "\"{}\":{{\"ms\":{ms:.3},\"counters\":{}}}",
                    escape_json(id),
                    counters_json(c)
                )
            })
            .collect();
        let extras: Vec<String> = self
            .extras
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape_json(k)))
            .collect();
        format!(
            "{{\"reps\":{REPS},\"figures\":{{{}}},{}}}",
            figs.join(","),
            extras.join(",")
        )
    }
}

/// How every number in this report is taken: one untimed warm-up run —
/// whose result is the one returned — then the median wall time (ms) of
/// [`REPS`] timed runs, release profile.
fn timed<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let warm = run();
    (time_median(REPS, run), warm)
}

/// [`timed`] evaluation of a lowered plan.
fn measure(db: &mut Database, plan: &PhysicalPlan) -> (f64, Counters, Value) {
    let (ms, warm) = timed(|| db.run_lowered(plan, Tracing::Off).unwrap());
    (ms, warm.counters, warm.value)
}

/// `plan` exactly as written: no kernel choices, every node evaluated by
/// the logical operator — what [`Database::run_plan`] runs.
fn logical(plan: &Expr) -> PhysicalPlan {
    PhysicalPlan::passthrough(plan.clone())
}

fn main() {
    println!("# EXCESS experiment report");
    println!();
    println!("Generated by `cargo run --release -p excess-bench --bin report`.");
    println!("Timings are medians of {REPS} runs (one process, debug assertions off).");

    let mut report = Report::new();
    f1(&mut report);
    f2();
    f3(&mut report);
    f4(&mut report);
    f5(&mut report);
    f6_f8(&mut report);
    f9_f11(&mut report);
    t1_a1_m1(&mut report);
    m2_served_load(&mut report);
    attribution(&mut report);
    section_d(&mut report);
    section_f(&mut report);
    section_g(&mut report);
    section_k(&mut report);
    verification(&mut report);

    assert!(
        report.figures.len() >= 40,
        "only {} figures recorded",
        report.figures.len()
    );
    let path = "BENCH_report.json";
    std::fs::write(path, report.to_json()).expect("write BENCH_report.json");
    println!("\nMachine-readable copy written to `{path}`.");
}

fn f1(r: &mut Report) {
    println!("\n## F1 — Figure 1: bulk load");
    println!("\n| scale | objects | load ms |");
    println!("|---|---|---|");
    for scale in [1usize, 4, 16] {
        let p = UniversityParams::default().scaled(scale);
        let (u, ms) = time_once(|| generate(&p).unwrap());
        println!("| {scale}× | {} | {ms:.1} |", u.db.store().len());
        r.record(format!("F1/scale{scale}"), ms, Counters::new());
    }
}

fn f2() {
    println!("\n## F2 — Figure 2: schema conditions & OID-domain rules");
    println!();
    println!("Property-tested, not timed: see `crates/types` unit tests and");
    println!("`tests/oid_domain_laws.rs` (rules 1–5, conditions i–iv).");
}

fn f3(r: &mut Report) {
    println!("\n## F3 — Figure 3: ARR_EXTRACT vs whole-array materialisation");
    println!(
        "\n| array len | derefs (figure3 / materialise-first) \
         | elements_scanned (figure3 / materialise-first) | figure3 µs | materialise-first µs |"
    );
    println!("|---|---|---|---|---|");
    let fig3 = Expr::named("BigArr")
        .arr_extract(5)
        .deref()
        .project(["name", "salary"]);
    let straw = Expr::named("BigArr")
        .arr_apply(Expr::input().deref())
        .arr_extract(5)
        .project(["name", "salary"]);
    let (mut fig3_counters, mut straw_derefs) = (Vec::new(), Vec::new());
    for len in [10usize, 1000, 100_000] {
        let mut db = array_db(len);
        let (a, ca, _) = measure(&mut db, &logical(&fig3));
        let (b, cb, _) = measure(&mut db, &logical(&straw));
        println!(
            "| {len} | {} / {} | {} / {} | {:.1} | {:.1} |",
            ca.derefs,
            cb.derefs,
            ca.elements_scanned,
            cb.elements_scanned,
            a * 1e3,
            b * 1e3
        );
        r.record(format!("F3/len{len}/extract"), a, ca);
        r.record(format!("F3/len{len}/materialise"), b, cb);
        fig3_counters.push(ca);
        straw_derefs.push(cb.derefs);
    }
    // The claim in counts: ARR_EXTRACT touches one element whatever the
    // length; materialising first dereferences every element.
    assert!(
        fig3_counters.windows(2).all(|w| w[0] == w[1]),
        "the Figure 3 plan's counters must not depend on the array length: {fig3_counters:?}"
    );
    assert!(
        straw_derefs.windows(2).all(|w| w[0] < w[1]),
        "materialise-first must dereference more as the array grows: {straw_derefs:?}"
    );
}

fn f4(r: &mut Report) {
    println!("\n## F4 — Figure 4: functional join");
    println!("\n| |E| | madison% | initial ms | optimized ms | derefs(init) | derefs(opt) |");
    println!("|---|---|---|---|---|---|");
    for (emps, frac) in [(500usize, 0.05), (500, 0.5), (2000, 0.2)] {
        let p = UniversityParams {
            employees: emps,
            students: 10,
            madison_fraction: frac,
            ..Default::default()
        };
        let mut db = generate(&p).unwrap().db;
        let initial = db.plan_for(queries::FIGURE4).unwrap();
        let optimized = db.optimize_plan(&initial);
        let (t1, c1, _) = measure(&mut db, &logical(&initial));
        let (t2, c2, _) = measure(&mut db, &logical(&optimized));
        println!(
            "| {emps} | {:.0}% | {t1:.2} | {t2:.2} | {} | {} |",
            frac * 100.0,
            c1.derefs,
            c2.derefs
        );
        let pct = (frac * 100.0) as u32;
        r.record(format!("F4/e{emps}p{pct}/initial"), t1, c1);
        r.record(format!("F4/e{emps}p{pct}/optimized"), t2, c2);
    }
}

fn f5(r: &mut Report) {
    println!("\n## F5 — Figure 5: overridden-method dispatch");
    println!("\n| scenario | switch ms | ⊎ ms | ⊎+index ms | P-scans (switch/⊎/⊎+ix) |");
    println!("|---|---|---|---|---|");
    let mut checks = Vec::new();
    for (label, impls, n, sub) in [
        ("trivial boss, |P|=3000", trivial_impls(), 3000usize, 0usize),
        ("sub_ords=64, |P|=600", expensive_impls(), 600, 64),
        ("sub_ords=512, |P|=150", expensive_impls(), 150, 512),
    ] {
        let mut db = dispatch_db(n, sub);
        index_extents(&mut db);
        let sw = switch_plan(&impls);
        let un = union_plan(&db, &impls);
        let ix = indexed_union_plan(&db, &impls);
        let (ts, cs, vs) = measure(&mut db, &logical(&sw));
        let (tu, cu, vu) = measure(&mut db, &logical(&un));
        let (ti, ci, vi) = measure(&mut db, &logical(&ix));
        let scans = [
            cs.named_object_scans,
            cu.named_object_scans,
            ci.named_object_scans,
        ];
        println!(
            "| {label} | {ts:.2} | {tu:.2} | {ti:.2} | {}/{}/{} |",
            scans[0], scans[1], scans[2]
        );
        r.record(format!("F5/p{n}s{sub}/switch"), ts, cs);
        r.record(format!("F5/p{n}s{sub}/union"), tu, cu);
        r.record(format!("F5/p{n}s{sub}/indexed"), ti, ci);
        // The three plans are one query: canon-identical results, and the
        // scan counts the paper's argument rests on.
        let canon = |v: &Value| canonical_form(v, db.store());
        let canon_identical = canon(&vs) == canon(&vu) && canon(&vu) == canon(&vi);
        assert!(
            canon_identical,
            "{label}: the three dispatch plans disagree"
        );
        assert_eq!(scans, [1, 3, 3], "{label}: P scanned {scans:?} times");
        checks.push(format!(
            "{{\"scenario\":\"p{n}s{sub}\",\"canon_identical\":{canon_identical},\
             \"named_object_scans\":[{},{},{}]}}",
            scans[0], scans[1], scans[2]
        ));
    }
    r.extra("f5_dispatch", format!("[{}]", checks.join(",")));
}

fn f6_f8(r: &mut Report) {
    println!("\n## F6–F8 — Example 1: pushing DE (|S|=512, |E|=256)");
    println!("\n| dup factor | fig6 ms | fig7 ms | fig8 ms | DE input (6/7/8) |");
    println!("|---|---|---|---|---|");
    for dup in [1usize, 8, 32] {
        let mut db = example1_db(512, 256, dup);
        let (t6, c6, _) = measure(&mut db, &logical(&figure6()));
        let (t7, c7, _) = measure(&mut db, &logical(&figure7()));
        let (t8, c8, _) = measure(&mut db, &logical(&figure8()));
        println!(
            "| {dup} | {t6:.1} | {t7:.1} | {t8:.1} | {}/{}/{} |",
            c6.de_input_occurrences, c7.de_input_occurrences, c8.de_input_occurrences
        );
        r.record(format!("F6/dup{dup}"), t6, c6);
        r.record(format!("F7/dup{dup}"), t7, c7);
        r.record(format!("F8/dup{dup}"), t8, c8);
    }
}

fn f9_f11(r: &mut Report) {
    println!("\n## F9–F11 — Example 2: σ before GRP, fused bodies, one DEREF");
    println!("\n| n / floors | fig9 ms | fig10 ms | fig11 ms | derefs (9/10/11) |");
    println!("|---|---|---|---|---|");
    for (n, floors) in [(2000usize, 5usize), (2000, 20), (8000, 10)] {
        let mut db = example2_db(n, 40, floors);
        let (t9, c9, _) = measure(&mut db, &logical(&figure9()));
        let (t10, c10, _) = measure(&mut db, &logical(&figure10()));
        let (t11, c11, _) = measure(&mut db, &logical(&figure11()));
        println!(
            "| {n}/{floors} | {t9:.1} | {t10:.1} | {t11:.1} | {}/{}/{} |",
            c9.derefs, c10.derefs, c11.derefs
        );
        r.record(format!("F9/n{n}f{floors}"), t9, c9);
        r.record(format!("F10/n{n}f{floors}"), t10, c10);
        r.record(format!("F11/n{n}f{floors}"), t11, c11);
    }
}

fn t1_a1_m1(r: &mut Report) {
    println!("\n## M1 — black-box vs inlined-and-optimized method");
    println!("\n| kids per employee | black-box ms | inlined+optimized ms |");
    println!("|---|---|---|");
    let define = r#"
define Employee function adult_kids () returns { Person }
{ retrieve (k) from k in this.kids where k.age >= 18 }
"#;
    let invoke = r#"
retrieve (c.name) from E in Employees, c in E.adult_kids()
where c.ssnum > 500000000
"#;
    for kids in [4usize, 32] {
        let p = UniversityParams {
            employees: 300,
            students: 10,
            kids_per_employee: kids,
            ..Default::default()
        };
        let mut db = generate(&p).unwrap().db;
        db.execute(define).unwrap();
        let raw = db.plan_for(invoke).unwrap();
        let optimized = db.optimize_plan(&raw);
        let (t1, c1, _) = measure(&mut db, &logical(&raw));
        let (t2, c2, _) = measure(&mut db, &logical(&optimized));
        println!("| {kids} | {t1:.1} | {t2:.1} |");
        r.record(format!("M1/kids{kids}/blackbox"), t1, c1);
        r.record(format!("M1/kids{kids}/inlined"), t2, c2);
    }

    println!("\n## A1 — ablation: optimizer on Example 2's initial plan");
    let db0 = example2_db(2000, 40, 10);
    let initial = figure9();
    let optimized = db0.optimize_plan(&initial);
    let mut db = example2_db(2000, 40, 10);
    let (ti, ci, _) = measure(&mut db, &logical(&initial));
    let (to, co, _) = measure(&mut db, &logical(&optimized));
    println!("\n| plan | ms | occurrences scanned | derefs |");
    println!("|---|---|---|---|");
    println!(
        "| initial (fig9) | {ti:.1} | {} | {} |",
        ci.occurrences_scanned, ci.derefs
    );
    println!(
        "| greedy-optimized | {to:.1} | {} | {} |",
        co.occurrences_scanned, co.derefs
    );
    r.record("A1/initial", ti, ci);
    r.record("A1/optimized", to, co);

    // The multiset representation: the sorted count map against the `Vec`
    // kernels of `multiset::naive`, on `DE` and `−` (a quarter of `a`'s
    // values distinct, `b` half as long).
    println!("\nMultiset kernels, count map vs `multiset::naive` (µs):");
    println!("\n| n | count-map DE | naive DE | count-map − | naive − |");
    println!("|---|---|---|---|---|");
    for n in [100usize, 1000, 4000] {
        let a: Vec<Value> = (0..n).map(|i| Value::int((i % (n / 4)) as i32)).collect();
        let b: Vec<Value> = (0..n / 2).map(|i| Value::int(i as i32)).collect();
        let ms_a: MultiSet = a.iter().cloned().collect();
        let ms_b: MultiSet = b.iter().cloned().collect();
        let (de, de_map) = timed(|| ms_a.dup_elim());
        let (de_naive, de_vec) = timed(|| naive::dup_elim(&a));
        let (diff, diff_map) = timed(|| ms_a.clone().difference(&ms_b));
        let (diff_naive, diff_vec) = timed(|| naive::difference(&a, &b));
        assert_eq!(
            de_map,
            MultiSet::from_occurrences(de_vec),
            "n={n}: DE kernels differ"
        );
        assert_eq!(
            diff_map,
            MultiSet::from_occurrences(diff_vec),
            "n={n}: − kernels differ"
        );
        println!(
            "| {n} | {:.1} | {:.1} | {:.1} | {:.1} |",
            de * 1e3,
            de_naive * 1e3,
            diff * 1e3,
            diff_naive * 1e3
        );
        for (kernel, ms) in [
            ("countmap_de", de),
            ("naive_de", de_naive),
            ("countmap_diff", diff),
            ("naive_diff", diff_naive),
        ] {
            r.record(format!("A1/kernels/n{n}/{kernel}"), ms, Counters::new());
        }
    }
}

/// Rule A2 run backwards: every `COMP` predicate operand that reads its
/// `COMP`'s input as `INPUT` re-derives the input instead.
fn rederived(e: &Expr) -> Expr {
    match e.map_children(&mut rederived) {
        Expr::Comp { input, pred } => {
            let again = input.shift_inputs(0, 1);
            let pred = pred.map_exprs(&mut |x| {
                if *x == Expr::input() {
                    again.clone()
                } else {
                    x.clone()
                }
            });
            Expr::Comp { input, pred }
        }
        other => other,
    }
}

/// M2: the `load` method the `objects` workload serves, its bodies
/// expanded into the algebra (Section 4's second approach) and optimized
/// as a session serves them.  Each body keeps the salaries over 0 of
/// `sub_ords` (an employee) or `dept.employees` (a student).  The served
/// plan's predicates read the salary their `COMP` already dereferenced
/// (rule A2): one `DEREF` per comparison, plus one per student's `dept`.
/// The same plan re-deriving each salary makes two per comparison.
fn m2_served_load(r: &mut Report) {
    println!("\n## M2 — the served `load` method: each salary dereferenced once");
    let mut db = generate(&UniversityParams {
        seed: 1,
        ..Default::default()
    })
    .unwrap()
    .db;
    db.execute(queries::DEFINE_WORKLOAD).unwrap();
    db.collect_stats();
    let student = db.registry().lookup("Student").unwrap();
    let in_p = db.catalog().value("P").unwrap().as_set().unwrap();
    let students = in_p
        .iter_occurrences()
        .filter(|v| exact_type_of(v, db.registry(), db.store()) == Some(student))
        .count() as u64;
    let optimized = db.optimize_plan(&db.plan_for(queries::QUERY_WORKLOAD).unwrap());
    let (served, _) = db.lower_plan(&optimized);
    let (twice, _) = db.lower_plan(&rederived(&optimized));
    assert_ne!(served.logical, twice.logical, "the served plan reads INPUT");
    let (ts, cs, vs) = measure(&mut db, &served);
    let (tt, ct, vt) = measure(&mut db, &twice);
    println!("\n{students} of P's elements are Students.");
    println!("\n| plan | derefs | comparisons | occurrences scanned | ms |");
    println!("|---|---|---|---|---|");
    for (label, c, ms) in [("served", cs, ts), ("re-derived", ct, tt)] {
        println!(
            "| {label} | {} | {} | {} | {ms:.3} |",
            c.derefs, c.comparisons, c.occurrences_scanned
        );
    }
    assert_eq!(vs, vt, "one query, one answer");
    assert_eq!(
        Counters { derefs: 0, ..cs },
        Counters { derefs: 0, ..ct },
        "only derefs differ"
    );
    assert_eq!(
        cs.derefs,
        cs.comparisons + students,
        "served: one read per salary"
    );
    assert_eq!(
        ct.derefs,
        2 * ct.comparisons + students,
        "re-derived: two reads per salary"
    );
    r.record("M2/served", ts, cs);
    r.record("M2/rederived", tt, ct);
}

/// Per-operator profile of `plan` as written (precise timestamps).
fn profile_of(db: &mut Database, plan: &Expr) -> Profile {
    db.run_lowered(&logical(plan), Tracing::Precise)
        .unwrap()
        .profile
        .expect("tracing was enabled")
}

/// Is `e` a DEREF, or does it read one in place?
fn reads_a_deref(e: &Expr) -> bool {
    matches!(e, Expr::Deref(_))
        || (e.children().into_iter().enumerate())
            .any(|(i, c)| reads_in_place(e, i) && reads_a_deref(c))
}

/// P1 — per-operator attribution: the F6–F11 claims checked *at the node
/// that makes them*, not just via global counters, plus the optimizer's
/// rewrite journal for the Example 1 pipeline.  The `assert!`s here make
/// the report binary itself a regression check.
fn attribution(r: &mut Report) {
    println!("\n## P1 — per-operator attribution (EXPLAIN ANALYZE)");

    // Figure 8's headline: with every employee name identical (dup ≥
    // max(|S|,|E|)), figure 7's single DE sees exactly |S|·|E| occurrences
    // while figure 8's input-side DEs see |S| + |E| between them.
    let (s, m) = (64usize, 48usize);
    let mut db = example1_db(s, m, s.max(m));
    let p7 = profile_of(&mut db, &figure7());
    let de7: Vec<_> = p7.nodes.iter().filter(|n| n.label == "DE").collect();
    assert_eq!(de7.len(), 1, "figure 7 has one DE node");
    assert_eq!(
        de7[0].self_counters.de_input_occurrences,
        (s * m) as u64,
        "figure 7's DE sees |S|·|E| occurrences"
    );
    let p8 = profile_of(&mut db, &figure8());
    // The input-side DEs sit below the join (path length > 2); the
    // post-join DE at [0,0] sees only the already-deduplicated output.
    let side_de: u64 = p8
        .nodes
        .iter()
        .filter(|n| n.label == "DE" && n.path.len() > 2)
        .map(|n| n.self_counters.de_input_occurrences)
        .sum();
    assert_eq!(side_de, (s + m) as u64, "figure 8's side DEs see |S|+|E|");
    println!("\n|S|=64, |E|=48, dup=64:");
    println!("  figure 7 DE input (at the DE node): {}", s * m);
    println!("  figure 8 DE input (input-side DEs): {}", s + m);

    // Figure 11's headline: `dept` is DEREF'd exactly once per student —
    // one DEREF node, n self-derefs.
    let n = 500usize;
    let mut db2 = example2_db(n, 40, 5);
    let p11 = profile_of(&mut db2, &figure11());
    let deref11: Vec<_> = p11.nodes.iter().filter(|x| x.label == "DEREF").collect();
    assert_eq!(deref11.len(), 1, "figure 11 has one DEREF node");
    assert_eq!(
        deref11[0].self_counters.derefs, n as u64,
        "figure 11 derefs dept exactly once per student"
    );
    // A DEREF read in place (under a path, or in a comparison of two
    // paths) is charged to the node that reads it.
    let f9 = logical(&figure9());
    let p9 = profile_of(&mut db2, &f9.logical);
    let deref9: u64 = p9
        .nodes
        .iter()
        .filter(|x| f9.node_at(&x.path).is_some_and(reads_a_deref))
        .map(|x| x.self_counters.derefs)
        .sum();
    assert!(
        deref9 >= 2 * n as u64,
        "figure 9 derefs dept at least twice per student"
    );
    println!("  figure 9 derefs at the nodes that read dept: {deref9} (n={n})");
    println!("  figure 11 derefs at its single DEREF node: {n}");

    // The rewrite journal for the Example 1 pipeline: on the Figure 6
    // parser output — no desugaring, no hints — the greedy pass takes
    // `rule8-de-through-group` then `rel5-de-early` (the Figure 6→7→8
    // derivation), and the journal records each rule, the node path, and
    // the cost trajectory.
    let rctx = excess_optimizer::RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = excess_optimizer::Optimizer::standard();
    let (_, journal) = opt.optimize_greedy_journaled(&figure6(), &rctx, db.statistics());
    let rules = journal.rule_sequence();
    assert!(
        rules.contains(&"rule8-de-through-group") && rules.contains(&"rel5-de-early"),
        "greedy on figure 6 should push DE through GRP and early, journal: {rules:?}"
    );
    assert!(journal.final_cost < journal.initial_cost);
    println!(
        "  optimizer on figure 6: rules {rules:?}, cost {:.0} → {:.0} ({} plans enumerated)",
        journal.initial_cost, journal.final_cost, journal.plans_enumerated
    );

    r.extra("p1_fig7_profile", profile_json(&p7));
    r.extra("p1_fig8_profile", profile_json(&p8));
    r.extra("p1_fig11_profile", profile_json(&p11));
    r.extra("p1_fig6_journal", journal_json(&journal));
}

/// D — the duplication-aware cost model's headline: the reference hill
/// climb (whole-plan steps, so the trajectory reads as the paper's
/// Figure 6 → 7 → 8 derivation; §K shows the memo landing on the same plan)
/// derives the Figure 8 plan from the Figure 6 parser output using only
/// statistics collected from the store, with a strictly decreasing cost
/// trajectory.  Records before/after estimated cost, the journal, and the
/// wall time of both executed plans; the `assert!`s make the report binary
/// a regression check.
fn section_d(r: &mut Report) {
    println!("\n## D — cost-based derivation: Figure 6 → Figure 8 from statistics");
    let (s, e, dup) = (512usize, 256usize, 32usize);
    let mut db = example1_db(s, e, dup);
    let rctx = excess_optimizer::RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = excess_optimizer::Optimizer::standard();
    let (best, journal) = opt.optimize_greedy_journaled(&figure6(), &rctx, db.statistics());
    let reaches = best.plan == figure8_canonical();
    assert!(
        reaches,
        "greedy(figure 6) must land on the Figure 8 plan, got:\n{:?}",
        best.plan
    );
    assert!(journal.final_cost < journal.initial_cost);
    assert_eq!(
        journal.rule_sequence(),
        ["rule8-de-through-group", "rel5-de-early"],
        "greedy(figure 6) must take Figure 7's rule, then Figure 8's"
    );
    let trajectory = journal.cost_trajectory();
    assert!(
        trajectory.windows(2).all(|w| w[1] < w[0]),
        "every step must lower the estimated cost: {trajectory:?}"
    );

    let (t_before, c_before, _) = measure(&mut db, &logical(&figure6()));
    let (t_after, c_after, _) = measure(&mut db, &logical(&best.plan));
    println!("\n|S|={s}, |E|={e}, dup={dup}:");
    println!("\n| plan | est. cost | ms | DE input occurrences |");
    println!("|---|---|---|---|");
    println!(
        "| figure 6 (initial) | {:.0} | {t_before:.2} | {} |",
        journal.initial_cost, c_before.de_input_occurrences
    );
    println!(
        "| greedy-optimized (= figure 8) | {:.0} | {t_after:.2} | {} |",
        journal.final_cost, c_after.de_input_occurrences
    );
    let traj: Vec<String> = trajectory.iter().map(|c| format!("{c:.0}")).collect();
    println!(
        "\nJournal: {:?}, cost {}.",
        journal.rule_sequence(),
        traj.join(" → ")
    );

    r.record("D/figure6-initial", t_before, c_before);
    r.record("D/figure6-optimized", t_after, c_after);
    let rules: Vec<String> = journal
        .rule_sequence()
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    let traj_json: Vec<String> = trajectory.iter().map(|c| format!("{c}")).collect();
    r.extra(
        "d_cost_model",
        format!(
            "{{\"reaches_figure8\":{reaches},\"initial_cost\":{},\"final_cost\":{},\
             \"rules\":[{}],\"trajectory\":[{}],\"ms_before\":{t_before:.3},\
             \"ms_after\":{t_after:.3}}}",
            journal.initial_cost,
            journal.final_cost,
            rules.join(","),
            traj_json.join(",")
        ),
    );
    r.extra("d_journal", journal_json(&journal));
}

/// F — physical lowering: the scaled join workload (Figure 7 with every
/// name distinct, so the |S|·|E| comparison loop is the whole query) run
/// once as the logical plan (nested loop) and once through the lowered
/// physical plan (hash equi-join kernel), serially.  The `assert!`s are
/// the section's claim: the results are canon-identical and the hash
/// kernel performs strictly fewer predicate comparisons.
fn section_f(r: &mut Report) {
    println!("\n## F — physical lowering: hash equi-join vs nested loop");
    let (s, e) = (512usize, 256usize);
    let mut db = example1_db(s, e, 1);
    db.analyze();
    let plan = figure7();

    let (tn, nested, nested_value) = measure(&mut db, &logical(&plan));

    let (physical, _) = db.lower_plan(&plan);
    let kernel = physical
        .choices
        .values()
        .find(|c| matches!(c.op, PhysOp::HashEquiJoin { .. }))
        .map(|c| c.op.to_string());
    let kernel = kernel.unwrap_or_else(|| {
        panic!(
            "lowering must pick a hash kernel for the scaled join:\n{}",
            physical.render()
        )
    });
    let (th, hash, hash_value) = measure(&mut db, &physical);

    let canon_identical =
        canonical_form(&nested_value, db.store()) == canonical_form(&hash_value, db.store());
    assert!(canon_identical, "hash kernel changed the query result");
    assert!(
        hash.comparisons < nested.comparisons,
        "hash kernel must compare strictly less: {} vs {}",
        hash.comparisons,
        nested.comparisons
    );

    println!("\n|S|={s}, |E|={e}, all names distinct; kernel: {kernel}.");
    println!("\n| plan | ms | predicate comparisons |");
    println!("|---|---|---|");
    println!(
        "| nested loop (logical) | {tn:.1} | {} |",
        nested.comparisons
    );
    println!(
        "| hash equi-join (lowered) | {th:.1} | {} |",
        hash.comparisons
    );

    r.record("F/scaled-join/nested", tn, nested);
    r.record("F/scaled-join/hash", th, hash);
    let served_join = served_join(r);
    r.extra(
        "f_physical",
        format!(
            "{{\"kernel\":\"{}\",\"nested_comparisons\":{},\"hash_comparisons\":{},\
             \"canon_identical\":{canon_identical},\"nested_ms\":{tn:.3},\"hash_ms\":{th:.3},\
             \"served_join\":{served_join}}}",
            escape_json(&kernel),
            nested.comparisons,
            hash.comparisons
        ),
    );
}

/// F, served text: Figure 6 as a client sends it.  The translator turns
/// the two-variable `where S.sadv = E.ename` into the paper's `rel_join`
/// (the two extents' attribute names are disjoint), and the memo takes it
/// to Figure 8 — [`figure8_canonical`] with the per-group target still
/// spelled attribute by attribute.  The translated plan runs as written
/// (nested loop, every operator logical) and as served (optimized and
/// lowered: the hash equi-join kernel), at the `served-retrieve`
/// benchmark's scale and four times it; at both, the served plan must be
/// Figure 8 on the hash kernel, canon-identical to the translated one,
/// with at most a quarter of its comparisons (counts that repeat exactly).
/// Returns the `served_join` document of the benchmark's scale for
/// `f_physical`.  The document also records, for the two other served
/// joins ([`ANALYTIC_JOINS`]), that their served run — the fused
/// join-apply reading its rows off the joined pairs — is canon-identical
/// to the plan as translated.
fn served_join(r: &mut Report) -> String {
    let (label, text) = MIX[0];
    let (ranges, retrieve) = text.split_at(text.find("retrieve").expect("a retrieve"));
    println!("\nServed text `{label}`: the translator's `rel_join`, optimized to Figure 8.");
    println!("\n| scale | plan | ms | predicate comparisons | DE input occurrences |");
    println!("|---|---|---|---|---|");
    let [at_benchmark_scale, _] = [120, 480].map(|scale| {
        let mut db = server_mix_db(scale);
        db.execute(ranges).unwrap();
        let plan = db.plan_for(retrieve).unwrap();
        let (tn, nested, nested_value) = measure(&mut db, &logical(&plan));
        let optimized = db.optimize_plan(&plan);
        let reaches_figure8 = with_pi_bodies(&optimized) == figure8_canonical();
        assert!(
            reaches_figure8,
            "the served join must optimize to Figure 8, got:\n{optimized:?}"
        );
        let (physical, _) = db.lower_plan(&optimized);
        let kernel = physical
            .choices
            .values()
            .find(|c| matches!(c.op, PhysOp::HashEquiJoin { .. }))
            .map(|c| c.op.to_string());
        let kernel = kernel.unwrap_or_else(|| {
            panic!("lowering must hash the served join:\n{}", physical.render())
        });
        let (ts, served, served_value) = measure(&mut db, &physical);
        let canon_identical =
            canonical_form(&nested_value, db.store()) == canonical_form(&served_value, db.store());
        assert!(
            canon_identical,
            "optimizing the served join changed its result"
        );
        assert!(
            served.comparisons * 4 <= nested.comparisons,
            "the served join must compare at most a quarter as often: {} vs {}",
            served.comparisons,
            nested.comparisons
        );
        println!(
            "| {scale} | as translated (nested loop) | {tn:.2} | {} | {} |",
            nested.comparisons, nested.de_input_occurrences
        );
        println!(
            "| {scale} | served (Figure 8: reached, {kernel}) | {ts:.2} | {} | {} |",
            served.comparisons, served.de_input_occurrences
        );
        r.record(format!("F/served-join/{scale}/nested"), tn, nested);
        r.record(format!("F/served-join/{scale}/served"), ts, served);
        format!(
            "{{\"kernel\":\"{}\",\"reaches_figure8\":{reaches_figure8},\
             \"canon_identical\":{canon_identical},\
             \"nested_comparisons\":{},\"served_comparisons\":{},\
             \"nested_de_input\":{},\"served_de_input\":{}",
            escape_json(&kernel),
            nested.comparisons,
            served.comparisons,
            nested.de_input_occurrences,
            served.de_input_occurrences
        )
    });
    println!("\nThe two other served joins, at scale 120: the fused join-apply reads rows off the pairs.");
    println!("\n| text | plan | ms | predicate comparisons | canon-identical |");
    println!("|---|---|---|---|---|");
    let analytic = ANALYTIC_JOINS.map(|(label, text)| {
        let mut db = server_mix_db(120);
        let (ranges, retrieve) = text.split_at(text.find("retrieve").expect("a retrieve"));
        db.execute(ranges).unwrap();
        let plan = db.plan_for(retrieve).unwrap();
        let (tn, nested, nested_value) = measure(&mut db, &logical(&plan));
        let (physical, _) = db.lower_plan(&db.optimize_plan(&plan));
        let (ts, served, served_value) = measure(&mut db, &physical);
        let canon_identical =
            canonical_form(&nested_value, db.store()) == canonical_form(&served_value, db.store());
        assert!(canon_identical, "serving `{label}` changed its result");
        println!(
            "| `{label}` | as translated (nested loop) | {tn:.2} | {} | |",
            nested.comparisons
        );
        println!(
            "| `{label}` | served | {ts:.2} | {} | {canon_identical} |",
            served.comparisons
        );
        r.record(format!("F/served-join/{label}/nested"), tn, nested);
        r.record(format!("F/served-join/{label}/served"), ts, served);
        format!("\"{label}\":{{\"canon_identical\":{canon_identical}}}")
    });
    format!("{at_benchmark_scale},{}}}", analytic.join(","))
}

/// `e` with every projection body written `π[…](INPUT)` — the served plan
/// spells its per-group target attribute by attribute
/// ([`Expr::projected_fields`]), where the figure writes `π`.
fn with_pi_bodies(e: &Expr) -> Expr {
    match e.map_children(&mut with_pi_bodies) {
        Expr::SetApply {
            input,
            body,
            only_types,
        } => {
            let body = match body.projected_fields() {
                Some(fields) => Box::new(Expr::input().project(fields)),
                None => body,
            };
            Expr::SetApply {
                input,
                body,
                only_types,
            }
        }
        other => other,
    }
}

/// Run one figure suite with spans on: every query goes through the
/// telemetry pipeline and its span tree is asserted to telescope exactly
/// to the profiler's counters.  Returns `(queries, registry json)` after
/// asserting the histogram invariants on the suite's `query_us` histogram.
fn g_suite(db: &mut Database, figs: &[(&str, Expr)], trace_fig: &str) -> (u64, String) {
    db.analyze();
    db.enable_query_spans(true);
    for (id, plan) in figs {
        db.run_query_plan(id, plan).unwrap();
        let total = db.last_counters();
        let trace = db.last_query_trace().expect("spans are on");
        for (name, v) in total.named_fields() {
            assert_eq!(
                trace.root.sum_num(name),
                v,
                "{id}: counter `{name}` must telescope through the span tree"
            );
        }
        if *id == trace_fig {
            let path = format!("trace_{id}.json");
            std::fs::write(&path, trace.to_chrome_trace()).expect("write chrome trace");
            println!("\nChrome trace of {id} written to `{path}` (load in chrome://tracing).");
        }
    }
    let t = db.telemetry();
    let h = t
        .registry
        .histogram("query_us")
        .expect("the pipeline observed every query");
    assert_eq!(h.count(), figs.len() as u64, "one observation per query");
    assert_eq!(
        h.bucket_sum(),
        h.count(),
        "bucket counts must sum to the query count"
    );
    let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
    assert!(
        p50 <= p95 && p95 <= p99,
        "quantiles must be monotone: {p50} {p95} {p99}"
    );
    (h.count(), t.registry.to_json())
}

/// G — unified telemetry: latency histograms with exact bucket counts and
/// span trees that telescope to the profiler's counters over the F6–F11
/// figures.  The `assert!`s in [`g_suite`] are the section's acceptance
/// criteria.
fn section_g(r: &mut Report) {
    println!("\n## G — unified telemetry: histograms and span telescoping");

    let mut db1 = example1_db(512, 256, 32);
    let figs1 = [("F6", figure6()), ("F7", figure7()), ("F8", figure8())];
    let (q1, reg1) = g_suite(&mut db1, &figs1, "F6");

    let mut db2 = example2_db(2000, 40, 10);
    let figs2 = [("F9", figure9()), ("F10", figure10()), ("F11", figure11())];
    let (q2, reg2) = g_suite(&mut db2, &figs2, "");

    println!("\nSpan telescoping: every counter summed over each query's span tree");
    println!(
        "equals the profiler total — asserted for all {} figures.",
        q1 + q2
    );

    r.extra(
        "g_histograms",
        format!(
            "{{\"queries\":{},\"example1\":{reg1},\"example2\":{reg2}}}",
            q1 + q2
        ),
    );
}

/// The memo against the reference climb on one figure plan: both from the
/// same parser output under the same statistics, both [`timed`].  The
/// reference is what the retired greedy pipeline branch ran — the climb
/// from the plan and from its `desugar()`, cheaper result kept.  The memo
/// must never extract a costlier plan.  Returns the figure's JSON row.
fn k_pair(id: &str, db: &Database, plan: &Expr, gate_refusals: &mut usize) -> String {
    let rctx = excess_optimizer::RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = excess_optimizer::Optimizer::standard();
    let (greedy_ms, greedy_cost) = timed(|| {
        let (a, _) = opt.optimize_greedy_journaled(plan, &rctx, db.statistics());
        let (b, _) = opt.optimize_greedy_journaled(&plan.desugar(), &rctx, db.statistics());
        a.cost.min(b.cost)
    });
    let (memo_ms, (m, run)) = timed(|| opt.optimize_memo_journaled(plan, &rctx, db.statistics()));
    assert!(
        m.cost <= greedy_cost,
        "{id}: memo extracted a costlier plan than the reference climb: {} vs {greedy_cost}",
        m.cost
    );
    let extract = run
        .journal
        .refused
        .iter()
        .filter(|s| s.rule == excess_optimizer::MEMO_EXTRACT_RULE)
        .count();
    *gate_refusals += extract;
    let snap = &run.snapshot;
    let (greedy_us, memo_us) = (greedy_ms * 1e3, memo_ms * 1e3);
    assert!(
        memo_us > 0.0 && greedy_us > 0.0,
        "{id}: an optimize time was not recorded"
    );
    assert!(
        !snap.groups.is_empty() && snap.members >= snap.groups.len(),
        "{id}: {} members in {} groups",
        snap.members,
        snap.groups.len()
    );
    println!(
        "| {id} | {greedy_cost:.0} | {:.0} | {greedy_us:.0} | {memo_us:.0} | {} | {} | {} |",
        m.cost,
        snap.groups.len(),
        snap.members,
        snap.rounds
    );
    format!(
        "{{\"figure\":\"{id}\",\"greedy_cost\":{greedy_cost},\"memo_cost\":{},\
         \"memo_le_greedy\":{},\"greedy_us\":{greedy_us:.1},\"memo_us\":{memo_us:.1},\
         \"groups\":{},\"members\":{},\"rounds\":{}}}",
        m.cost,
        m.cost <= greedy_cost,
        snap.groups.len(),
        snap.members,
        snap.rounds
    )
}

/// K — the one plan search against the reference climb.  Two sub-claims,
/// each asserted here:
///
/// 1. On every figure (F6–F11) and the scaled join the memo — with no
///    greedy pass inside it — extracts a plan no costlier than the
///    reference climb's; the optimize time of both is tabled.
/// 2. The memo derives the canonical Figure 8 plan from the Figure 6
///    parser output, journaling the same two DE rules, with zero
///    extraction-gate refusals.
fn section_k(r: &mut Report) {
    println!("\n## K — the memo vs the reference climb");

    println!(
        "\n| figure | greedy cost | memo cost | greedy µs | memo µs | groups | members | rounds |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut rows: Vec<String> = Vec::new();
    let mut gate_refusals = 0usize;
    let db1 = example1_db(512, 256, 32);
    for (id, plan) in [("F6", figure6()), ("F7", figure7()), ("F8", figure8())] {
        rows.push(k_pair(id, &db1, &plan, &mut gate_refusals));
    }
    let db2 = example2_db(2000, 40, 10);
    for (id, plan) in [("F9", figure9()), ("F10", figure10()), ("F11", figure11())] {
        rows.push(k_pair(id, &db2, &plan, &mut gate_refusals));
    }
    let dbj = example1_db(512, 256, 1);
    rows.push(k_pair("scaled-join", &dbj, &figure7(), &mut gate_refusals));
    assert_eq!(
        gate_refusals, 0,
        "the extraction gate refused a memo winner — a soundness regression"
    );

    // The Figure 6 → Figure 8 derivation out of group exploration alone.
    let rctx = excess_optimizer::RuleCtx {
        registry: db1.registry(),
        schemas: db1.catalog(),
    };
    let (best, run) = excess_optimizer::Optimizer::standard().optimize_memo_journaled(
        &figure6(),
        &rctx,
        db1.statistics(),
    );
    let reaches = best.plan == figure8_canonical();
    assert!(
        reaches,
        "the memo must land on the Figure 8 plan, got:\n{:?}",
        best.plan
    );
    let rules = run.journal.rule_sequence();
    assert!(rules.contains(&"rule8-de-through-group") && rules.contains(&"rel5-de-early"));
    assert!(run.journal.final_cost < run.journal.initial_cost);
    let regressions = run
        .journal
        .refused
        .iter()
        .filter(|s| {
            s.rule == excess_optimizer::MEMO_EXTRACT_RULE
                || s.rule == "rule8-de-through-group"
                || s.rule == "rel5-de-early"
        })
        .count();
    assert_eq!(regressions, 0, "soundness-refusal regression in the memo");
    println!(
        "\nThe memo on Figure 6: reaches Figure 8, rules {rules:?}, \
         cost {:.0} → {:.0}, {} groups.",
        run.journal.initial_cost,
        run.journal.final_cost,
        run.snapshot.groups.len()
    );
    let rule_json: Vec<String> = rules.iter().map(|n| format!("\"{n}\"")).collect();

    r.extra(
        "k_memo",
        format!(
            "{{\"figures\":[{}],\"all_memo_le_greedy\":true,\
             \"extract_gate_refusals\":{gate_refusals},\
             \"figure6_to_8\":{{\"reaches_figure8\":{reaches},\"rules\":[{}],\
             \"initial_cost\":{},\"final_cost\":{},\"regression_refusals\":{regressions}}}}}",
            rows.join(","),
            rule_json.join(","),
            run.journal.initial_cost,
            run.journal.final_cost
        ),
    );
}

/// Verify one benchmark plan, record its (clean) verdict, and tally lints.
fn check_clean(db: &Database, id: &str, plan: &Expr, entries: &mut Vec<String>, lints: &mut usize) {
    let rep = db.verify_plan(plan);
    assert!(
        rep.is_clean(),
        "{id} has verifier errors:\n{}",
        rep.render()
    );
    *lints += rep.lint_count();
    entries.push(format!("\"{id}\":{}", verify_json(&rep)));
}

/// Verify every intermediate plan a search of `plan` passes through — the
/// rewrite-soundness gate's promise, re-checked from outside.  The
/// reference climb's journal steps are whole plans, so each one is
/// verified; the memo's steps are group-local subtrees, so there the
/// whole-plan promise lives at extraction — the winner must verify clean
/// and the extraction gate must not have refused it.  Returns the number
/// of intermediates checked.
fn check_journal_intermediates(db: &mut Database, id: &str, plan: &Expr) -> usize {
    let rctx = excess_optimizer::RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let (_, journal) = excess_optimizer::Optimizer::standard().optimize_greedy_journaled(
        plan,
        &rctx,
        db.statistics(),
    );
    assert!(
        journal.refused.is_empty(),
        "{id}: the gate refused catalogue rewrites: {:?}",
        journal.refused
    );
    for (i, step) in journal.steps.iter().enumerate() {
        let rep = db.verify_plan(&step.plan);
        assert!(
            rep.is_clean(),
            "{id} journal step {i} ({}) left an unclean plan:\n{}",
            step.rule,
            rep.render()
        );
    }
    let (memo_plan, memo_journal) = db.optimize_plan_journaled(plan);
    assert!(
        !memo_journal
            .refused
            .iter()
            .any(|s| s.rule == excess_optimizer::MEMO_EXTRACT_RULE),
        "{id}: the extraction gate refused the memo winner"
    );
    let rep = db.verify_plan(&memo_plan);
    assert!(
        rep.is_clean(),
        "{id}: the memo winner is unclean:\n{}",
        rep.render()
    );
    journal.steps.len() + 1
}

/// V1 — static analysis: every figure plan (F3–F11, M1, A1 shapes) and
/// every optimizer-journal intermediate verifies clean, and the verdicts
/// land in BENCH_report.json under `v1_verification`.
fn verification(r: &mut Report) {
    println!("\n## V1 — plan verifier: every figure plan verifies clean");
    let mut entries: Vec<String> = Vec::new();
    let mut lints = 0usize;
    let mut steps = 0usize;

    // F3 — the array plans over the array database.
    let adb = array_db(10);
    let fig3 = Expr::named("BigArr")
        .arr_extract(5)
        .deref()
        .project(["name", "salary"]);
    let straw = Expr::named("BigArr")
        .arr_apply(Expr::input().deref())
        .arr_extract(5)
        .project(["name", "salary"]);
    check_clean(&adb, "F3/extract", &fig3, &mut entries, &mut lints);
    check_clean(&adb, "F3/materialise", &straw, &mut entries, &mut lints);

    // F4 — the functional join over the university database, before and
    // after optimization, plus its journal intermediates.
    let p = UniversityParams {
        employees: 100,
        students: 10,
        ..Default::default()
    };
    let mut udb = generate(&p).unwrap().db;
    let initial = udb.plan_for(queries::FIGURE4).unwrap();
    let optimized = udb.optimize_plan(&initial);
    check_clean(&udb, "F4/initial", &initial, &mut entries, &mut lints);
    check_clean(&udb, "F4/optimized", &optimized, &mut entries, &mut lints);
    steps += check_journal_intermediates(&mut udb, "F4", &initial);

    // F5 — the dispatch plans, including the extent-indexed ⊎ form (whose
    // substitution phase is itself journaled and gated).
    let mut ddb = dispatch_db(50, 0);
    index_extents(&mut ddb);
    let impls = trivial_impls();
    check_clean(
        &ddb,
        "F5/switch",
        &switch_plan(&impls),
        &mut entries,
        &mut lints,
    );
    check_clean(
        &ddb,
        "F5/union",
        &union_plan(&ddb, &impls),
        &mut entries,
        &mut lints,
    );
    check_clean(
        &ddb,
        "F5/indexed",
        &indexed_union_plan(&ddb, &impls),
        &mut entries,
        &mut lints,
    );
    steps += check_journal_intermediates(&mut ddb, "F5", &switch_plan(&impls));

    // F6–F8 over Example 1, F9–F11 over Example 2.  With the
    // duplication-aware cost model the sugared Example 1 figures rewrite
    // as-is (rule8-de-through-group / rel5-de-early on figures 6 and 7);
    // Example 2's figures are locally optimal sugared, so its journal
    // runs go through the desugared forms, where the greedy pass actually
    // rewrites (σ/GRP moves on figure 9).  Every intermediate must still
    // verify clean.
    let mut db1 = example1_db(20, 20, 2);
    for (id, plan) in [("F6", figure6()), ("F7", figure7()), ("F8", figure8())] {
        check_clean(&db1, id, &plan, &mut entries, &mut lints);
        steps += check_journal_intermediates(&mut db1, id, &plan);
    }
    let mut db2 = example2_db(100, 10, 5);
    for (id, plan) in [("F9", figure9()), ("F10", figure10()), ("F11", figure11())] {
        check_clean(&db2, id, &plan, &mut entries, &mut lints);
        steps += check_journal_intermediates(&mut db2, id, &plan.desugar());
    }
    assert!(
        steps > 0,
        "no journal intermediates were exercised — the desugared figures should rewrite"
    );
    assert!(entries.len() >= 13, "only {} plans verified", entries.len());

    println!(
        "\n{} plans verified clean ({} lints), {} journal intermediates re-verified.",
        entries.len(),
        lints,
        steps
    );
    r.extra(
        "v1_verification",
        format!(
            "{{\"all_clean\":true,\"plans_checked\":{},\"journal_steps_checked\":{steps},\
             \"lints\":{lints},\"plans\":{{{}}}}}",
            entries.len(),
            entries.join(",")
        ),
    );
}
