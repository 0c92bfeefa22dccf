//! The served path is the measured path: `Database::execute` and
//! `Session::query` run one pipeline, so on the same data under the same
//! options they must agree on everything the pipeline decides — value,
//! lowered plan, work done, kernels chosen — and a plan lowered with no
//! choices must be exactly the naive evaluator.

mod common;

use excess::algebra::expr::Expr;
use excess::algebra::physical::{PhysOp, PhysicalPlan};
use excess::db::{value_json, Database, Tracing, VersionedDb};
use excess::telemetry::fnv1a64;
use excess_bench::server_mix::{server_mix_db, MIX};
use excess_workload::{queries, UniversityParams};

/// Run every query through a database and through a session over an
/// identical database, and compare what each pipeline run produced.
fn assert_served_equals_direct(make: impl Fn() -> Database, queries: &[String]) {
    // The server's fixed options: no spans — and statistics collected,
    // as `VersionedDb::new` does.
    let mut db = make();
    db.collect_stats();
    let vdb = VersionedDb::new(make());
    let mut session = vdb.begin_session();
    for q in queries {
        let before_db = common::work(&db.telemetry().registry);
        let before_s = common::work(&session.telemetry().registry);
        let direct = db.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let served = session.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let canon = excess::algebra::canonical_form(&direct, db.store());
        assert_eq!(
            value_json(&canon),
            value_json(&session.canon(&served.value)),
            "{q}: values"
        );
        assert_eq!(
            common::work(&db.telemetry().registry) - before_db,
            common::work(&session.telemetry().registry) - before_s,
            "{q}: work counters"
        );
        let direct = db.telemetry().recorder.records().last().unwrap();
        let record = session.telemetry().recorder.records().last().unwrap();
        assert_eq!(served.plan_hash, direct.plan_hash, "{q}: plan");
        assert_eq!(record.plan_hash, direct.plan_hash, "{q}: record");
        assert_eq!(record.kernels, direct.kernels, "{q}: kernels");
        assert_eq!(record.query, direct.query, "{q}: label");
        assert_eq!(record.rows, direct.rows, "{q}: rows");
    }
    vdb.shutdown();
}

#[test]
fn figure_mix_and_probes_agree_on_the_server_mix() {
    // The figure mix and `analytic`'s two other joins…
    let mut qs: Vec<String> = common::served_mix_requests()
        .into_iter()
        .map(str::to_string)
        .collect();
    // …and the benchmark's probe shapes, over a spread of literals.
    for k in [0, 3, 9] {
        qs.push(format!("retrieve (S1.sname) where S1.sdept = {k}"));
    }
    for k in [1, 5] {
        qs.push(format!("retrieve (S2.sname) where S2.dept.floor = {k}"));
        qs.push(format!(
            "range of T is S2 retrieve (T.sname) by T.dept.division where T.dept.floor = {k}"
        ));
    }
    assert_served_equals_direct(|| server_mix_db(60), &qs);
}

#[test]
fn paper_queries_agree_on_the_figure1_university() {
    let make = || common::served_university(&UniversityParams::tiny());
    let qs = [
        queries::SECTION2_KIDS,
        queries::SECTION2_MIN_AGE,
        queries::FIGURE3,
        queries::FIGURE4,
        queries::EXAMPLE1,
        queries::EXAMPLE2,
        queries::QUERY_BOSS,
        queries::QUERY_WORKLOAD,
    ]
    .map(str::to_string);
    assert_served_equals_direct(make, &qs);
}

/// The optimized logical plan of each of the 14 request kinds the four
/// `served-retrieve` workloads send, at the benchmark's own scale, pinned:
/// the search leaves nine exactly as translated, turns the two method
/// calls into the dispatch switch (the `load` bodies' predicates reading
/// the salary their `COMP` already read as `INPUT`, rule A2), and takes
/// the three `analytic` joins —
/// translated to `rel_join` — through the DE-pushing rules: `f6` to
/// Figure 8 (per-group target still spelled attribute by attribute), and
/// the `unique` projection to DE over both projected join inputs.  Same
/// logical plan, same lowering, same `plan_hash` — a change to the
/// translator or the search that moves what these requests execute has
/// to say so here.
#[test]
fn served_plans_are_the_pinned_ones() {
    const BOSS: &str = "SET_APPLY_SWITCH[Person → TUP_EXTRACT[name](INPUT); \
        Employee → TUP_EXTRACT[name](DEREF(TUP_EXTRACT[manager](INPUT))); \
        Student → TUP_EXTRACT[name](DEREF(TUP_EXTRACT[advisor](INPUT)))](P)";
    const LOAD: &str = "SET_APPLY_SWITCH[Person → 0; \
        Employee → count(SET_APPLY[COMP[INPUT > 0]\
        (TUP_EXTRACT[salary](DEREF(INPUT)))](TUP_EXTRACT[sub_ords](INPUT))); \
        Student → count(SET_APPLY[COMP[INPUT > 0]\
        (TUP_EXTRACT[salary](DEREF(INPUT)))]\
        (TUP_EXTRACT[employees](DEREF(TUP_EXTRACT[dept](INPUT)))))](P)";
    const F6: &str = "GRP[TUP_EXTRACT[sdept](INPUT)](DE(SET_APPLY[TUP_CAT(\
        TUP[sdept](TUP_EXTRACT[sdept](INPUT)), TUP[ename](TUP_EXTRACT[ename](INPUT)))]\
        (rel_join[TUP_EXTRACT[sadv](INPUT) = TUP_EXTRACT[ename](INPUT)]\
        (DE(SET_APPLY[π[sdept,sadv](INPUT)](S1)), DE(SET_APPLY[π[ename](INPUT)](E1))))))";
    const JOIN_PROJECT: &str = "SET_APPLY[π[sname,esal](INPUT)]\
        (rel_join[TUP_EXTRACT[sadv](INPUT) = TUP_EXTRACT[ename](INPUT)](S1, E1))";
    const JOIN_AGG: &str = "DE(SET_APPLY[π[sdept,esal](INPUT)](rel_join[\
        (TUP_EXTRACT[sadv](INPUT) = TUP_EXTRACT[ename](INPUT) ∧ TUP_EXTRACT[esal](INPUT) > 1010)]\
        (DE(SET_APPLY[π[sdept,sadv](INPUT)](S1)), DE(SET_APPLY[π[ename,esal](INPUT)](E1)))))";
    let mut db = server_mix_db(120);
    for line in common::served_mix_requests() {
        let plan = common::plan_of(&mut db, line);
        let optimized = db.optimize_plan(&plan);
        let pinned = match line {
            _ if line == MIX[0].1 => F6,
            _ if line.contains("(S.sname, E.esal)") => JOIN_PROJECT,
            _ if line.contains("(S.sdept, E.esal)") => JOIN_AGG,
            _ => {
                assert_eq!(optimized, plan, "{line}");
                continue;
            }
        };
        assert_eq!(optimized.to_string(), pinned, "{line}");
    }
    let mut db = common::served_university(&UniversityParams {
        seed: 1,
        ..UniversityParams::default()
    });
    for line in common::SERVED_UNIVERSITY_REQUESTS {
        let plan = common::plan_of(&mut db, line);
        let optimized = db.optimize_plan(&plan);
        match line {
            queries::QUERY_BOSS => assert_eq!(optimized.to_string(), BOSS),
            queries::QUERY_WORKLOAD => assert_eq!(optimized.to_string(), LOAD),
            _ => assert_eq!(optimized, plan, "{line}"),
        }
    }
}

/// The kernels those 14 request kinds run on, at the same scale: the
/// three `analytic` joins carry the hash equi-join kernel on their
/// `rel_join` node — the only `rel_join` in each plan — and no other
/// served request carries one.
/// The `plan_hash` each reports is FNV-1a of the lowered plan's `Debug`
/// rendering, streamed or not.
#[test]
fn served_joins_hash_the_rel_join_and_nothing_else_does() {
    const HASH: &str = "HashEquiJoin[sadv = ename]";
    let check = |db: &mut Database, line: &str| {
        let plan = common::plan_of(db, line);
        let (physical, journal) = db.lower_plan(&db.optimize_plan(&plan));
        assert_eq!(journal.refused, Vec::new(), "{line}");
        let hashed: Vec<_> = physical
            .choices
            .iter()
            .filter(|(_, c)| matches!(c.op, PhysOp::HashEquiJoin { .. }))
            .collect();
        if line.contains("S.sadv = E.ename") {
            let [(path, choice)] = hashed[..] else {
                panic!("{line}: {hashed:?}")
            };
            assert_eq!(choice.op.to_string(), HASH, "{line}");
            assert!(
                matches!(physical.node_at(path), Some(Expr::RelJoin { .. })),
                "{line}: {path:?}"
            );
        } else {
            assert!(hashed.is_empty(), "{line}: {hashed:?}");
        }
        db.execute(line).unwrap();
        let record = db.telemetry().recorder.records().last().unwrap();
        assert_eq!(
            record.plan_hash,
            fnv1a64(format!("{physical:?}").as_bytes()),
            "{line}"
        );
        assert_eq!(
            record.kernels.iter().any(|(_, k)| k == HASH),
            !hashed.is_empty(),
            "{line}"
        );
    };
    let mut db = server_mix_db(120);
    for line in common::served_mix_requests() {
        check(&mut db, line);
    }
    let mut db = common::served_university(&UniversityParams {
        seed: 1,
        ..UniversityParams::default()
    });
    for line in common::SERVED_UNIVERSITY_REQUESTS {
        check(&mut db, line);
    }
}

#[test]
fn a_plan_lowered_with_no_choices_is_the_naive_evaluator() {
    for plan in common::seeds() {
        // Fresh databases: plans that mint OIDs mint the same ones.
        let mut naive_db = common::database();
        let naive = naive_db.run_plan(&plan);
        let mut db = common::database();
        let lowered = db.run_lowered(&PhysicalPlan::passthrough(plan.clone()), Tracing::Off);
        match (naive, lowered) {
            (Ok(naive), Ok(lowered)) => {
                assert_eq!(naive, lowered.value, "{plan}");
                assert_eq!(naive_db.last_counters(), lowered.counters, "{plan}");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{plan}"),
            (a, b) => panic!("{plan}: naive {a:?} vs lowered {:?}", b.map(|r| r.value)),
        }
    }
}
