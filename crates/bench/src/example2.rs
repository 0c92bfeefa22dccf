//! Section 5, Example 2 (Figures 9–11): SET_APPLY fusion and pushing work
//! inside COMP.
//!
//! "retrieve (S.name) by S.dept.division where S.dept.floor = 5" — the
//! student tuples hold a `dept` *reference*, so every access to a dept
//! attribute costs a DEREF; Figure 11's payoff is "the dept attribute
//! needs to be DEREF'd only once".

use excess_core::expr::{CmpOp, Expr, Func, Pred};
use excess_db::Database;
use excess_types::{SchemaType, Value};

/// Build the Example 2 database: `n` students over `depts` departments
/// (dept objects are referenced, floors cycle 1..=floors).
pub fn example2_db(n: usize, depts: usize, floors: usize) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    populate_example2(&mut db, n, depts, floors);
    db.collect_stats();
    db
}

/// Load the Example 2 schema and extents (`Dept2` objects in the store,
/// `S2` referencing them) into an existing database — shared between
/// [`example2_db`] and the server-mix builder.  Does not collect
/// statistics; callers do once everything is loaded.
pub(crate) fn populate_example2(db: &mut Database, n: usize, depts: usize, floors: usize) {
    db.execute("define type Dept2: (division: char[], dname: char[], floor: int4)")
        .unwrap();
    let dept_ty = db.registry().lookup("Dept2").unwrap();
    let dept_oids: Vec<_> = (0..depts.max(1))
        .map(|i| {
            let v = Value::tuple([
                ("division", Value::str(format!("div{}", i % 4))),
                ("dname", Value::str(format!("d{i}"))),
                ("floor", Value::int((i % floors.max(1)) as i32 + 1)),
            ]);
            db.store_mut().create_unchecked(dept_ty, v)
        })
        .collect();
    let students: Vec<Value> = (0..n)
        .map(|i| {
            Value::tuple([
                ("sname", Value::str(format!("s{i}"))),
                ("dept", Value::Ref(dept_oids[i % dept_oids.len()])),
            ])
        })
        .collect();
    db.put_object(
        "S2",
        SchemaType::set(SchemaType::tuple([
            ("sname", SchemaType::chars()),
            ("dept", SchemaType::reference("Dept2")),
        ])),
        Value::set(students),
    );
}

fn floor_is_5_via_deref() -> Pred {
    Pred::cmp(
        Expr::input().extract("dept").deref().extract("floor"),
        CmpOp::Eq,
        Expr::int(5),
    )
}

/// Drop empty groups: Figures 9/10 group *before* selecting, so divisions
/// with no 5th-floor students survive as empty groups, which the σ-first
/// Figure 11 never produces.  The paper's rule 10 is stated without this
/// compensation (see `excess-optimizer`'s rule docs); the benches add it
/// so all three plans return identical values.
fn drop_empty_groups(groups: Expr) -> Expr {
    groups.select(Pred::cmp(
        Expr::call(Func::Count, vec![Expr::input()]),
        CmpOp::Gt,
        Expr::int(0),
    ))
}

/// Figure 9 — the initial tree: GRP on `division(DEREF(dept))`, then a
/// per-group σ on `floor(DEREF(dept)) = 5`, then a per-group π of the
/// name.  Three passes; `dept` DEREF'd in both the grouping key and the σ.
pub fn figure9() -> Expr {
    drop_empty_groups(
        Expr::named("S2")
            .group_by(Expr::input().extract("dept").deref().extract("division"))
            .set_apply(
                Expr::input()
                    .select(floor_is_5_via_deref())
                    .set_apply(Expr::input().extract("sname")),
            ),
    )
}

/// Figure 10 — rule 15 applied twice: the per-group σ and π collapse into
/// one SET_APPLY whose body is `π(COMP(…))`.
pub fn figure10() -> Expr {
    drop_empty_groups(
        Expr::named("S2")
            .group_by(Expr::input().extract("dept").deref().extract("division"))
            .set_apply(
                Expr::input()
                    .set_apply(Expr::input().comp(floor_is_5_via_deref()).extract("sname")),
            ),
    )
}

/// Figure 11 — σ pushed ahead of GRP (rule 10) *and* the dereference
/// pushed inside the COMP (rule 26): each student's `dept` is DEREF'd
/// exactly once, into a projected pair `(sname, dept-value)`, and the
/// grouping key reads the already-materialised dept.
pub fn figure11() -> Expr {
    let project_and_test = Expr::input()
        .extract("sname")
        .make_tup("sname")
        .tup_cat(Expr::input().extract("dept").deref().make_tup("dept"))
        .comp(Pred::cmp(
            Expr::input().extract("dept").extract("floor"),
            CmpOp::Eq,
            Expr::int(5),
        ));
    Expr::named("S2")
        .set_apply(project_and_test)
        .group_by(Expr::input().extract("dept").extract("division"))
        .set_apply(Expr::input().set_apply(Expr::input().extract("sname")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_figures_agree() {
        let mut db = example2_db(100, 10, 5);
        let f9 = db.run_plan(&figure9()).unwrap();
        let f10 = db.run_plan(&figure10()).unwrap();
        let f11 = db.run_plan(&figure11()).unwrap();
        assert_eq!(f9, f10, "figure 9 vs 10");
        assert_eq!(f10, f11, "figure 10 vs 11");
        assert!(!f9.as_set().unwrap().is_empty());
    }

    #[test]
    fn figure11_halves_derefs() {
        let mut db = example2_db(200, 10, 5);
        db.run_plan(&figure9()).unwrap();
        let d9 = db.last_counters().derefs;
        db.run_plan(&figure11()).unwrap();
        let d11 = db.last_counters().derefs;
        // Figure 9 dereferences dept in GRP *and* σ (2 per student);
        // Figure 11 exactly once per student.
        assert_eq!(d11, 200);
        assert!(d9 >= 2 * d11 - 10, "figure9 {d9} derefs, figure11 {d11}");
    }

    #[test]
    fn optimizer_reaches_a_fused_plan_from_figure9() {
        // The greedy optimizer must find an estimated-cheaper (or equal)
        // plan and preserve the answer.  (Operator count may grow: the
        // winning plan is often the desugared σ → SET_APPLY∘COMP form,
        // which has more nodes but fewer passes.)
        let db = example2_db(50, 10, 5);
        let fused = db.optimize_plan(&figure9());
        let stats = db.statistics();
        assert!(
            excess_optimizer::cost_of(&fused, stats)
                <= excess_optimizer::cost_of(&figure9(), stats)
        );
        let mut db2 = example2_db(50, 10, 5);
        assert_eq!(
            db2.run_plan(&fused).unwrap(),
            db2.run_plan(&figure9()).unwrap()
        );
    }
}
