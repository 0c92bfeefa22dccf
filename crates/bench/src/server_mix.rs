//! The server workload: one database carrying both Section 5 example
//! datasets, and the figure query mix expressed in EXCESS surface text
//! (what the wire protocol speaks, unlike the algebra `Expr` builders in
//! [`example1`](crate::example1) / [`example2`](crate::example2)).
//!
//! Used by the `qps` driver (N client threads replaying [`MIX`] against
//! a live server) and the server smoke tests (wire results must be
//! canon-identical to in-process session results).

use crate::example1::populate_example1;
use crate::example2::populate_example2;
use excess_db::Database;

/// One database with both example datasets:
///
/// * `S1` / `E1` — Example 1's value-typed students and employees
///   (Figures 6–8 family: join, group, unique),
/// * `Dept2` objects and `S2` — Example 2's referenced departments
///   (Figures 9–11 family: deref, group, select).
///
/// `scale` is the approximate student count per dataset; statistics are
/// collected once everything is loaded, and the optimizer stays on —
/// this is a serving workload, not a fixed-plan figure measurement.
pub fn server_mix_db(scale: usize) -> Database {
    let scale = scale.max(12);
    let mut db = Database::new();
    populate_example1(&mut db, scale, (scale / 2).max(6), 6);
    populate_example2(&mut db, scale, (scale / 10).max(4), 6);
    db.collect_stats();
    db
}

/// The figure query mix in surface text: `(label, program)` pairs, each
/// a single wire line.  Labels name the figure family each query
/// exercises.
pub const MIX: &[(&str, &str)] = &[
    (
        "f6_join_group_unique",
        "range of S is S1 range of E is E1 \
         retrieve unique (S.sdept, E.ename) by S.sdept where S.sadv = E.ename",
    ),
    ("f7_unique_by_dept", "retrieve unique (S1.sadv) by S1.sdept"),
    (
        "f8_selective_probe",
        "retrieve (S1.sname) where S1.sdept = 3",
    ),
    (
        "f9_deref_group",
        "range of T is S2 retrieve (T.sname) by T.dept.division where T.dept.floor = 5",
    ),
    (
        "f10_deref_select",
        "retrieve (S2.sname) where S2.dept.floor = 2",
    ),
    (
        "f11_deref_pair",
        "retrieve unique (S2.dept.division, S2.dept.floor)",
    ),
];

/// The `served-retrieve` benchmark's two other `analytic` joins over
/// Example 1's extents, `(label, program)` as [`MIX`] has them: a plain
/// projection of the join, and a deduplicated one with a residual
/// conjunct.
pub const ANALYTIC_JOINS: [(&str, &str); 2] = [
    (
        "join_project",
        "range of S is S1 range of E is E1 \
         retrieve (S.sname, E.esal) where S.sadv = E.ename",
    ),
    (
        "join_agg",
        "range of S is S1 range of E is E1 \
         retrieve unique (S.sdept, E.esal) where S.sadv = E.ename and E.esal > 1010",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use excess_db::{value_json, VersionedDb};

    /// Every mix query must run both through `Database::execute` and a
    /// snapshot session, with canon-identical results — the in-process
    /// half of the wire-fidelity story.
    #[test]
    fn mix_queries_agree_between_database_and_session() {
        let mut db = server_mix_db(60);
        let vdb = VersionedDb::new(server_mix_db(60));
        let mut session = vdb.begin_session();
        for (label, src) in MIX {
            let direct = db.execute(src).unwrap_or_else(|e| panic!("{label}: {e}"));
            let direct = value_json(&excess_core::canon::canonical_form(&direct, db.store()));
            let out = session
                .query(src)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let via_session = value_json(&session.canon(&out.value));
            assert_eq!(via_session, direct, "{label}");
            assert!(out.rows > 0, "{label} returned no rows");
        }
        vdb.shutdown();
    }
}
