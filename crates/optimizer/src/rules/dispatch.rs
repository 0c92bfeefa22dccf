//! Section 4 dispatch rewrites.
//!
//! The EXCESS translator renders an overridden method invocation on a
//! single receiver as `the(SET_APPLY_SWITCH[…](SET(recv)))` — a
//! per-element switch over a singleton.  When such an invocation is mapped
//! over a whole set, [`RD1LiftSingletonSwitch`] lifts it into one
//! set-level switch (the Section 4 "first approach"), and
//! [`RD2SwitchToUnion`] converts a set-level switch into the Figure 5
//! ⊎-of-type-filtered-SET_APPLYs plan (the "second approach"), exposing
//! the method bodies to every other rule.  Cost decides which form wins.

use crate::dispatch::{build_union, MethodImpl};
use crate::rule::{Rule, RuleCtx};
use excess_core::expr::{Expr, Func};

/// `SET_APPLY[the(SWITCH[T→b…](SET(INPUT)))](X)` → `SWITCH[T→b…](X)`.
pub struct RD1LiftSingletonSwitch;

impl Rule for RD1LiftSingletonSwitch {
    fn name(&self) -> &'static str {
        "dispatch1-lift-singleton-switch"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::SetApply {
            input,
            body,
            only_types: None,
        } = e
        else {
            return vec![];
        };
        let Expr::Call(Func::The, args) = &**body else {
            return vec![];
        };
        let [Expr::SetApplySwitch {
            input: sw_in,
            table,
        }] = args.as_slice()
        else {
            return vec![];
        };
        let Expr::MakeSet(recv) = &**sw_in else {
            return vec![];
        };
        if **recv != Expr::input() {
            return vec![];
        }
        // Arm bodies sit under two binders (outer SET_APPLY + switch); the
        // outer element is only reachable as Input(1), which the translator
        // never emits — but check, then unbind one level.
        if table.iter().any(|(_, b)| b.mentions_input(1)) {
            return vec![];
        }
        let lifted = table
            .iter()
            .map(|(t, b)| (t.clone(), b.shift_inputs(1, -1)))
            .collect();
        vec![Expr::SetApplySwitch {
            input: input.clone(),
            table: lifted,
        }]
    }
}

/// `SWITCH[T1→b1; T2→b2](X)` → `SET_APPLY[T1…; b1](X) ⊎ SET_APPLY[T2…;
/// b2](X)` — the Figure 5 plan, with each arm's exact-type coverage
/// computed from the hierarchy.
pub struct RD2SwitchToUnion;

impl Rule for RD2SwitchToUnion {
    fn name(&self) -> &'static str {
        "dispatch2-switch-to-union"
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::SetApplySwitch { input, table } = e else {
            return vec![];
        };
        if table.is_empty() || input.mints_oids() {
            // The ⊎ plan scans `input` once per arm; a minting input would
            // mint that many times over.
            return vec![];
        }
        // All arm types must exist in the hierarchy for coverage to be
        // computable.
        if table.iter().any(|(t, _)| ctx.registry.lookup(t).is_err()) {
            return vec![];
        }
        let impls: Vec<MethodImpl> = table
            .iter()
            .map(|(t, b)| MethodImpl {
                owner: t.clone(),
                body: b.clone(),
            })
            .collect();
        vec![build_union(ctx.registry, (**input).clone(), &impls)]
    }
}

/// Both dispatch rules, boxed.
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    vec![Box::new(RD1LiftSingletonSwitch), Box::new(RD2SwitchToUnion)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_types::{SchemaType, TypeRegistry};
    use std::collections::HashMap;

    fn fixtures() -> (TypeRegistry, HashMap<String, SchemaType>) {
        let mut reg = TypeRegistry::new();
        reg.define("Person", SchemaType::tuple([("name", SchemaType::chars())]))
            .unwrap();
        reg.define_with_supertypes(
            "Employee",
            SchemaType::tuple([("salary", SchemaType::int4())]),
            &["Person"],
        )
        .unwrap();
        let mut schemas = HashMap::new();
        schemas.insert(
            "P".to_string(),
            SchemaType::set(SchemaType::named("Person")),
        );
        (reg, schemas)
    }

    #[test]
    fn lift_singleton_switch() {
        let (reg, schemas) = fixtures();
        let ctx = RuleCtx {
            registry: &reg,
            schemas: &schemas,
        };
        // The translator's shape for `retrieve (P.f())`.
        let per_elem = Expr::call(
            Func::The,
            vec![Expr::SetApplySwitch {
                input: Box::new(Expr::input().make_set()),
                table: vec![
                    ("Person".into(), Expr::input().extract("name")),
                    ("Employee".into(), Expr::input().extract("salary")),
                ],
            }],
        );
        let e = Expr::named("P").set_apply(per_elem);
        let out = RD1LiftSingletonSwitch.apply(&e, &ctx);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Expr::SetApplySwitch { input, table } => {
                assert_eq!(**input, Expr::named("P"));
                assert_eq!(table.len(), 2);
                assert_eq!(table[0].1, Expr::input().extract("name"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn switch_to_union_covers_types() {
        let (reg, schemas) = fixtures();
        let ctx = RuleCtx {
            registry: &reg,
            schemas: &schemas,
        };
        let e = Expr::SetApplySwitch {
            input: Box::new(Expr::named("P")),
            table: vec![
                ("Person".into(), Expr::input().extract("name")),
                ("Employee".into(), Expr::input().extract("salary")),
            ],
        };
        let out = RD2SwitchToUnion.apply(&e, &ctx);
        assert_eq!(out.len(), 1);
        let s = out[0].to_string();
        assert!(s.contains('⊎'), "{s}");
        assert!(s.contains("SET_APPLY[Person;"), "{s}");
        assert!(s.contains("SET_APPLY[Employee;"), "{s}");
    }
}
