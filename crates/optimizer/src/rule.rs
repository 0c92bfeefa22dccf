//! The transformation-rule abstraction.
//!
//! A rule examines the *root* of an expression and proposes zero or more
//! equivalent replacements; the rewrite engine ([`crate::engine`]) applies
//! every rule at every subtree position.  Rules are named after the
//! Appendix numbering so EXPERIMENTS.md and the ablation bench can refer to
//! them directly.

use excess_core::expr::Expr;
use excess_core::infer::SchemaCatalog;
use excess_core::verify::verify;
use excess_types::{SchemaType, TypeRegistry};

/// Context rules may consult: the type hierarchy and the schemas of named
/// top-level objects (several rules need to know tuple field provenance).
pub struct RuleCtx<'a> {
    /// Named-type registry.
    pub registry: &'a TypeRegistry,
    /// Schemas of named top-level objects.
    pub schemas: &'a dyn SchemaCatalog,
}

impl<'a> RuleCtx<'a> {
    /// The schema of `e` in an empty binder environment, when the verifier
    /// finds no error in it.  An open subtree reports `unbound-input`, so
    /// it has no schema here even where the walk could type its root.
    pub(crate) fn infer(&self, e: &Expr) -> Option<SchemaType> {
        let report = verify(e, self.schemas, self.registry);
        if report.is_clean() {
            report.schema
        } else {
            None
        }
    }

    /// Field names of the tuple elements of a set-valued expression, if
    /// statically known (used by field-provenance side conditions).
    pub(crate) fn set_elem_fields(&self, e: &Expr) -> Option<Vec<String>> {
        let SchemaType::Set(elem) = self.infer(e)? else {
            return None;
        };
        self.field_names(&elem)
    }

    /// Field names of a tuple-valued expression, if statically known.
    pub(crate) fn tuple_fields(&self, e: &Expr) -> Option<Vec<String>> {
        self.field_names(&self.infer(e)?)
    }

    /// Field names of a tuple schema, resolving `Named` one level.
    fn field_names(&self, t: &SchemaType) -> Option<Vec<String>> {
        let t = match t {
            SchemaType::Named(n) => self.registry.full_body(self.registry.lookup(n).ok()?),
            other => other,
        };
        match t {
            SchemaType::Tup(fs) => Some(fs.iter().map(|(n, _)| n.clone()).collect()),
            _ => None,
        }
    }
}

/// A semantics-preserving transformation.
pub trait Rule {
    /// Stable identifier, e.g. `"rule15-combine-set-applys"`.
    fn name(&self) -> &'static str;
    /// Propose replacements for `e` (matching at the root only).
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr>;
    /// `true` for rules that are sound only modulo object identity (rule 28
    /// second form) — the engine can exclude them when exact OID identity
    /// must be preserved.
    fn modulo_identity(&self) -> bool {
        false
    }
    /// `true` for rules whose equivalence assumes null-free data (the
    /// paper's rules are stated without addressing `unk` interactions —
    /// see the Appendix caveats in each rule's documentation).
    fn assumes_null_free(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Shared side-condition helpers
// ---------------------------------------------------------------------

/// `true` iff every use of the binder variable at `depth` inside `e` has
/// the form `TUP_EXTRACT_field(Input(depth))` — the precise meaning we give
/// to the paper's side condition "E applies only to A" for pair-shaped
/// inputs (`field = "fst"`), and to field-provenance checks in rules 24–26.
pub(crate) fn input_only_via_extract(e: &Expr, depth: usize, field: &str) -> bool {
    match e {
        Expr::TupExtract(inner, f) => {
            if let Expr::Input(d) = **inner {
                if d == depth {
                    return f == field;
                }
            }
            input_only_via_extract(inner, depth, field)
        }
        Expr::Input(d) => *d != depth,
        Expr::SetApply { input, body, .. } => {
            input_only_via_extract(input, depth, field)
                && input_only_via_extract(body, depth + 1, field)
        }
        Expr::ArrApply { input, body } => {
            input_only_via_extract(input, depth, field)
                && input_only_via_extract(body, depth + 1, field)
        }
        Expr::Group { input, by } => {
            input_only_via_extract(input, depth, field)
                && input_only_via_extract(by, depth + 1, field)
        }
        Expr::Comp { input, pred } => {
            input_only_via_extract(input, depth, field)
                && pred
                    .exprs()
                    .iter()
                    .all(|x| input_only_via_extract(x, depth + 1, field))
        }
        Expr::Select { input, pred } | Expr::ArrSelect { input, pred } => {
            input_only_via_extract(input, depth, field)
                && pred
                    .exprs()
                    .iter()
                    .all(|x| input_only_via_extract(x, depth + 1, field))
        }
        Expr::RelJoin { left, right, pred } => {
            input_only_via_extract(left, depth, field)
                && input_only_via_extract(right, depth, field)
                && pred
                    .exprs()
                    .iter()
                    .all(|x| input_only_via_extract(x, depth + 1, field))
        }
        Expr::SetApplySwitch { input, table } => {
            input_only_via_extract(input, depth, field)
                && table
                    .iter()
                    .all(|(_, b)| input_only_via_extract(b, depth + 1, field))
        }
        _ => e
            .children()
            .iter()
            .all(|c| input_only_via_extract(c, depth, field)),
    }
}

/// Like `input_only_via_extract` but allows extraction of *any* field in
/// `fields` (rules 24 and the join-pushdown need "uses only A's fields").
pub(crate) fn input_only_via_extract_of(e: &Expr, depth: usize, fields: &[String]) -> bool {
    match e {
        Expr::TupExtract(inner, f) => {
            if let Expr::Input(d) = **inner {
                if d == depth {
                    return fields.iter().any(|x| x == f);
                }
            }
            input_only_via_extract_of(inner, depth, fields)
        }
        Expr::Input(d) => *d != depth,
        Expr::SetApply { input, body, .. } => {
            input_only_via_extract_of(input, depth, fields)
                && input_only_via_extract_of(body, depth + 1, fields)
        }
        Expr::ArrApply { input, body } => {
            input_only_via_extract_of(input, depth, fields)
                && input_only_via_extract_of(body, depth + 1, fields)
        }
        Expr::Group { input, by } => {
            input_only_via_extract_of(input, depth, fields)
                && input_only_via_extract_of(by, depth + 1, fields)
        }
        Expr::Comp { input, pred } => {
            input_only_via_extract_of(input, depth, fields)
                && pred
                    .exprs()
                    .iter()
                    .all(|x| input_only_via_extract_of(x, depth + 1, fields))
        }
        Expr::Select { input, pred } | Expr::ArrSelect { input, pred } => {
            input_only_via_extract_of(input, depth, fields)
                && pred
                    .exprs()
                    .iter()
                    .all(|x| input_only_via_extract_of(x, depth + 1, fields))
        }
        Expr::RelJoin { left, right, pred } => {
            input_only_via_extract_of(left, depth, fields)
                && input_only_via_extract_of(right, depth, fields)
                && pred
                    .exprs()
                    .iter()
                    .all(|x| input_only_via_extract_of(x, depth + 1, fields))
        }
        Expr::SetApplySwitch { input, table } => {
            input_only_via_extract_of(input, depth, fields)
                && table
                    .iter()
                    .all(|(_, b)| input_only_via_extract_of(b, depth + 1, fields))
        }
        _ => e
            .children()
            .iter()
            .all(|c| input_only_via_extract_of(c, depth, fields)),
    }
}

/// Rewrite every `TUP_EXTRACT_field(Input(depth))` into `Input(depth)` —
/// the body adjustment when a pair projection is eliminated (rules 5, 9,
/// 13) or when a COMP is pushed below a `TUP_EXTRACT` (rule 26).
pub(crate) fn strip_extract(e: &Expr, depth: usize, field: &str) -> Expr {
    if let Expr::TupExtract(inner, f) = e {
        if let Expr::Input(d) = **inner {
            if d == depth && f == field {
                return Expr::Input(depth);
            }
        }
    }
    match e {
        Expr::SetApply {
            input,
            body,
            only_types,
        } => Expr::SetApply {
            input: Box::new(strip_extract(input, depth, field)),
            body: Box::new(strip_extract(body, depth + 1, field)),
            only_types: only_types.clone(),
        },
        Expr::ArrApply { input, body } => Expr::ArrApply {
            input: Box::new(strip_extract(input, depth, field)),
            body: Box::new(strip_extract(body, depth + 1, field)),
        },
        Expr::Group { input, by } => Expr::Group {
            input: Box::new(strip_extract(input, depth, field)),
            by: Box::new(strip_extract(by, depth + 1, field)),
        },
        Expr::Comp { input, pred } => Expr::Comp {
            input: Box::new(strip_extract(input, depth, field)),
            pred: pred.map_exprs(&mut |x| strip_extract(x, depth + 1, field)),
        },
        Expr::Select { input, pred } => Expr::Select {
            input: Box::new(strip_extract(input, depth, field)),
            pred: pred.map_exprs(&mut |x| strip_extract(x, depth + 1, field)),
        },
        Expr::ArrSelect { input, pred } => Expr::ArrSelect {
            input: Box::new(strip_extract(input, depth, field)),
            pred: pred.map_exprs(&mut |x| strip_extract(x, depth + 1, field)),
        },
        Expr::RelJoin { left, right, pred } => Expr::RelJoin {
            left: Box::new(strip_extract(left, depth, field)),
            right: Box::new(strip_extract(right, depth, field)),
            pred: pred.map_exprs(&mut |x| strip_extract(x, depth + 1, field)),
        },
        Expr::SetApplySwitch { input, table } => Expr::SetApplySwitch {
            input: Box::new(strip_extract(input, depth, field)),
            table: table
                .iter()
                .map(|(t, b)| (t.clone(), strip_extract(b, depth + 1, field)))
                .collect(),
        },
        _ => e.map_children(&mut |c| strip_extract(c, depth, field)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::expr::{Func, Pred};
    use std::collections::HashMap;

    /// The verifier's walk types the root of
    /// `TUP[min](min(SET_COLLAPSE(SET_APPLY[σ[INPUT = INPUT^3](INPUT)](Nested))))`
    /// past its unbound `INPUT^3`; the rules must still see no fields.
    #[test]
    fn an_open_subtree_has_no_tuple_fields() {
        let reg = TypeRegistry::new();
        let schemas = HashMap::from([(
            "Nested".to_string(),
            SchemaType::set(SchemaType::set(SchemaType::int4())),
        )]);
        let ctx = RuleCtx {
            registry: &reg,
            schemas: &schemas,
        };
        let min_of = |other: Expr| {
            let apply = Expr::named("Nested")
                .set_apply(Expr::input().select(Pred::eq(Expr::input(), other)));
            Expr::call(Func::Min, vec![Expr::SetCollapse(Box::new(apply))]).make_tup("min")
        };
        let open = min_of(Expr::input_at(3));
        let report = verify(&open, &schemas, &reg);
        assert!(report.schema.is_some());
        assert!(report.errors().any(|d| d.code == "unbound-input"));
        assert_eq!(ctx.tuple_fields(&open), None);
        assert_eq!(
            ctx.tuple_fields(&min_of(Expr::int(1))),
            Some(vec!["min".into()])
        );
    }

    #[test]
    fn only_via_extract_accepts_projection_chains() {
        // COMP[fst.x = 1](INPUT) uses INPUT only via fst.
        let body = Expr::input().comp(Pred::eq(
            Expr::input_at(1).extract("fst").extract("x"),
            Expr::int(1),
        ));
        // Hmm — the COMP's input is Input(0) itself, which is a bare use.
        assert!(!input_only_via_extract(&body, 0, "fst"));
        // TUP_EXTRACT_fst(INPUT) alone qualifies.
        let e = Expr::input().extract("fst").extract("x");
        assert!(input_only_via_extract(&e, 0, "fst"));
        assert!(!input_only_via_extract(&e, 0, "snd"));
    }

    #[test]
    fn only_via_extract_tracks_binder_depth() {
        // SET_APPLY[TUP_EXTRACT_fst(INPUT^1)](B): the INPUT^1 refers to the
        // outer binder, extracted via fst — allowed.
        let e = Expr::named("B").set_apply(Expr::input_at(1).extract("fst"));
        assert!(input_only_via_extract(&e, 0, "fst"));
        // Bare INPUT^1 is not.
        let e2 = Expr::named("B").set_apply(Expr::input_at(1));
        assert!(!input_only_via_extract(&e2, 0, "fst"));
    }

    #[test]
    fn strip_extract_rewrites_at_depth() {
        let e = Expr::input().extract("fst").extract("x");
        assert_eq!(strip_extract(&e, 0, "fst"), Expr::input().extract("x"));
        // Under a binder the index is adjusted.
        let e2 = Expr::named("B").set_apply(Expr::input_at(1).extract("fst"));
        assert_eq!(
            strip_extract(&e2, 0, "fst"),
            Expr::named("B").set_apply(Expr::input_at(1))
        );
    }

    #[test]
    fn extract_of_many_fields() {
        let e = Expr::input()
            .extract("a")
            .tup_cat(Expr::input().extract("b"));
        assert!(input_only_via_extract_of(&e, 0, &["a".into(), "b".into()]));
        assert!(!input_only_via_extract_of(&e, 0, &["a".into()]));
    }
}
