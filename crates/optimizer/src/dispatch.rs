//! Section 4: algebraic treatments for overridden methods.
//!
//! Given a method `f` with (possibly overridden) implementations on a
//! sub-hierarchy, a query `retrieve (P.f(...))` can be processed two ways:
//!
//! 1. **Switch table** — one scan; at each element the run-time exact type
//!    selects the stored query tree ([`build_switch`]).  No compile-time
//!    optimization across method bodies.
//! 2. **⊎-based** ([`build_union`], Figure 5) — one type-filtered
//!    `SET_APPLY` per *distinct implementation*, results combined with ⊎.
//!    Each arm is a plain query tree the optimizer can rewrite with
//!    everything else.
//!
//! [`choose`] implements the paper's cost guidance: prefer the switch when
//!  method bodies are trivial ("at most a DEREF and a TUP_EXTRACT"); prefer
//! ⊎ when the body scans large nested collections (the sub_ords example) or
//! when per-type extent indexes eliminate the repeated scans.

use crate::cost::{cost_of, SWITCH_COST, TYPE_TEST_COST};
use crate::stats::Statistics;
use excess_core::expr::Expr;
use excess_types::{TypeId, TypeRegistry};

/// One method implementation: the type that declares (or overrides) the
/// body, and the body itself (binding `Input(0)` to the receiver).
#[derive(Debug, Clone)]
pub struct MethodImpl {
    /// Owning type name.
    pub owner: String,
    /// The stored query tree.
    pub body: Expr,
}

/// Which §4 strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStrategy {
    /// Run-time switch table (single scan, opaque bodies).
    SwitchTable,
    /// Compile-time ⊎ of type-filtered SET_APPLYs (Figure 5).
    UnionPerType,
}

/// Build the switch-table plan: `SET_APPLY_SWITCH[owner→body; …](input)`.
pub fn build_switch(input: Expr, impls: &[MethodImpl]) -> Expr {
    Expr::SetApplySwitch {
        input: Box::new(input),
        table: impls
            .iter()
            .map(|m| (m.owner.clone(), m.body.clone()))
            .collect(),
    }
}

/// The exact types each implementation covers: the owner plus every
/// descendant that resolves to it ([`TypeRegistry::nearest`], the rule the
/// switch table dispatches by) — "only as many SET_APPLYs as there are
/// distinct method implementations".
pub fn coverage(reg: &TypeRegistry, impls: &[MethodImpl]) -> Vec<(MethodImpl, Vec<String>)> {
    let owners: Vec<(TypeId, &MethodImpl)> = impls
        .iter()
        .filter_map(|m| reg.lookup(&m.owner).ok().map(|id| (id, m)))
        .collect();
    let nearest = |d: TypeId| reg.nearest(d, owners.iter().map(|&(o, _)| (o, o)));
    owners
        .iter()
        .map(|&(owner, m)| {
            let mut covered = vec![m.owner.clone()];
            for &d in reg.descendants(owner) {
                if nearest(d) == Some(owner) {
                    covered.push(reg.name_of(d).to_string());
                }
            }
            (m.clone(), covered)
        })
        .collect()
}

/// Build the Figure 5 plan: `⊎` over one `SET_APPLY[T…; body]` per
/// implementation, each filtered to the exact types that implementation
/// covers.
pub fn build_union(reg: &TypeRegistry, input: Expr, impls: &[MethodImpl]) -> Expr {
    let mut arms = coverage(reg, impls)
        .into_iter()
        .map(|(m, covered)| input.clone().set_apply_only(covered, m.body));
    let first = arms.next().expect("at least one implementation");
    arms.fold(first, |acc, arm| acc.add_union(arm))
}

/// Cost-based strategy choice for `retrieve (P.f(...))` over object `set
/// name`.  Mirrors the paper's discussion:
///
/// * all arms extent-indexed → ⊎ (re-scans are free);
/// * expensive bodies (≫ scan cost) → ⊎ (compile-time optimization of the
///   dominant term pays for the extra scans);
/// * trivial bodies → switch table (one scan wins).
pub fn choose(
    reg: &TypeRegistry,
    stats: &Statistics,
    set_name: &str,
    impls: &[MethodImpl],
) -> DispatchStrategy {
    let all_indexed = coverage(reg, impls)
        .iter()
        .flat_map(|(_, covered)| covered.iter())
        .all(|t| stats.has_extent_index(set_name, t));
    if all_indexed {
        return DispatchStrategy::UnionPerType;
    }
    let n = impls.len().max(1) as f64;
    let avg_body_cost: f64 = impls.iter().map(|m| cost_of(&m.body, stats)).sum::<f64>() / n;
    // Per element: switch pays type-test + switch overhead, once.
    // ⊎ pays (n − 1) extra scans + n type tests per element of the set.
    let switch_per_elem = TYPE_TEST_COST + SWITCH_COST + 1.0 + avg_body_cost;
    let union_per_elem = n * (TYPE_TEST_COST + 1.0) + avg_body_cost;
    if union_per_elem < switch_per_elem || avg_body_cost > 16.0 * n {
        // The second disjunct: when bodies are expensive, the ⊎ plan's
        // compile-time optimization opportunities dominate (the paper's
        // sub_ords argument) even if raw scan arithmetic is close.
        DispatchStrategy::UnionPerType
    } else {
        DispatchStrategy::SwitchTable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_types::SchemaType;

    fn university() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.define("Person", SchemaType::tuple([("name", SchemaType::chars())]))
            .unwrap();
        r.define_with_supertypes(
            "Employee",
            SchemaType::tuple([("salary", SchemaType::int4())]),
            &["Person"],
        )
        .unwrap();
        r.define_with_supertypes(
            "Student",
            SchemaType::tuple([("gpa", SchemaType::float4())]),
            &["Person"],
        )
        .unwrap();
        r
    }

    fn boss_impls() -> Vec<MethodImpl> {
        vec![
            MethodImpl {
                owner: "Person".into(),
                body: Expr::input().extract("name"),
            },
            MethodImpl {
                owner: "Employee".into(),
                body: Expr::input().extract("salary"),
            },
            MethodImpl {
                owner: "Student".into(),
                body: Expr::input().extract("gpa"),
            },
        ]
    }

    #[test]
    fn coverage_respects_overrides() {
        let reg = university();
        // Only Person and Employee implement f: Person's arm covers
        // Person and Student; Employee's covers Employee.
        let impls = vec![
            MethodImpl {
                owner: "Person".into(),
                body: Expr::input(),
            },
            MethodImpl {
                owner: "Employee".into(),
                body: Expr::input(),
            },
        ];
        let cov = coverage(&reg, &impls);
        let person_cov: Vec<_> = cov
            .iter()
            .find(|(m, _)| m.owner == "Person")
            .unwrap()
            .1
            .clone();
        assert!(person_cov.contains(&"Person".to_string()));
        assert!(person_cov.contains(&"Student".to_string()));
        assert!(!person_cov.contains(&"Employee".to_string()));
        let emp_cov: Vec<_> = cov
            .iter()
            .find(|(m, _)| m.owner == "Employee")
            .unwrap()
            .1
            .clone();
        assert_eq!(emp_cov, vec!["Employee".to_string()]);
    }

    #[test]
    fn union_plan_shape_matches_figure5() {
        let reg = university();
        let plan = build_union(&reg, Expr::named("P"), &boss_impls());
        // ⊎ of three SET_APPLYs (binary ⊎, twice).
        let s = plan.to_string();
        assert_eq!(s.matches("SET_APPLY").count(), 3);
        assert_eq!(s.matches('⊎').count(), 2);
    }

    #[test]
    fn switch_plan_has_one_scan() {
        let plan = build_switch(Expr::named("P"), &boss_impls());
        assert_eq!(plan.to_string().matches("SET_APPLY_SWITCH").count(), 1);
    }

    #[test]
    fn trivial_bodies_prefer_switch() {
        // The "boss" example: bodies are at most a DEREF + TUP_EXTRACT.
        let reg = university();
        let stats = Statistics::new();
        assert_eq!(
            choose(&reg, &stats, "P", &boss_impls()),
            DispatchStrategy::SwitchTable
        );
    }

    #[test]
    fn expensive_bodies_prefer_union() {
        // The sub_ords example: each body scans a large nested set.
        let reg = university();
        let mut stats = Statistics::new();
        stats.default_avg_nested = 500.0;
        let big_body = Expr::input()
            .extract("sub_ords")
            .set_apply(Expr::input().deref().extract("name"));
        let impls = vec![
            MethodImpl {
                owner: "Person".into(),
                body: big_body.clone(),
            },
            MethodImpl {
                owner: "Employee".into(),
                body: big_body,
            },
        ];
        assert_eq!(
            choose(&reg, &stats, "P", &impls),
            DispatchStrategy::UnionPerType
        );
    }

    #[test]
    fn indexed_extents_prefer_union() {
        let reg = university();
        let mut stats = Statistics::new();
        for t in ["Person", "Employee", "Student"] {
            stats.add_extent_index("P", t);
        }
        assert_eq!(
            choose(&reg, &stats, "P", &boss_impls()),
            DispatchStrategy::UnionPerType
        );
    }
}
