//! The method registry: EXCESS functions defined on EXTRA types, with
//! overriding.
//!
//! "A method, in EXTRA/EXCESS, is simply an EXCESS statement (or sequence
//! of them) defined to operate on structures of a certain EXTRA type …
//! When an EXCESS method is defined, it is translated into an algebraic
//! query tree that will execute the method.  When the method is invoked,
//! its stored query tree is 'plugged in' to the appropriate place in the
//! invoking query tree." (Section 4)
//!
//! Stored bodies bind `Input(0)` to the receiver (`this`); formal
//! parameters appear as `Named("$arg:<name>")` placeholders substituted at
//! invocation — so the whole invoking query, method body included, is one
//! algebra tree the optimizer rewrites freely (the anti-"black box"
//! design the paper argues for).

use crate::error::{LangError, LangResult};
use excess_core::expr::Expr;
use excess_types::{SchemaType, TypeRegistry};
use std::collections::HashMap;

/// A stored method implementation.
#[derive(Debug, Clone)]
pub struct MethodDef {
    /// The type the implementation is defined on.
    pub owner: String,
    /// Method name.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<(String, SchemaType)>,
    /// Declared return type.
    pub returns: SchemaType,
    /// The translated query tree (`Input(0)` = receiver, `$arg:` leaves =
    /// parameters).
    pub body: Expr,
}

/// All method definitions, indexed by name.
#[derive(Debug, Clone, Default)]
pub struct MethodRegistry {
    by_name: HashMap<String, Vec<MethodDef>>,
}

impl MethodRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or override) a method.  Overriding "require\[s\] that the
    /// type signatures of all the methods be identical".
    pub fn define(&mut self, def: MethodDef) -> LangResult<()> {
        let slot = self.by_name.entry(def.name.clone()).or_default();
        if let Some(existing) = slot.first() {
            let sig_existing: Vec<&SchemaType> = existing.params.iter().map(|(_, t)| t).collect();
            let sig_new: Vec<&SchemaType> = def.params.iter().map(|(_, t)| t).collect();
            if sig_existing != sig_new || existing.returns != def.returns {
                return Err(LangError::Translate(format!(
                    "overriding `{}` must keep the type signature identical",
                    def.name
                )));
            }
        }
        if let Some(prev) = slot.iter_mut().find(|d| d.owner == def.owner) {
            *prev = def; // redefinition on the same type replaces
        } else {
            slot.push(def);
        }
        Ok(())
    }

    /// All implementations of `name`.
    pub fn implementations(&self, name: &str) -> &[MethodDef] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Method names defined on (or inherited by) `ty`.
    pub fn methods_of(&self, reg: &TypeRegistry, ty: &str) -> Vec<&MethodDef> {
        let Ok(id) = reg.lookup(ty) else {
            return vec![];
        };
        self.by_name
            .values()
            .filter_map(|defs| reg.nearest(id, by_owner(reg, defs)))
            .collect()
    }

    /// Resolve the implementation a receiver of static type `ty` uses:
    /// the implementation on the nearest ancestor-or-self
    /// ([`TypeRegistry::nearest`]).
    pub fn resolve(&self, reg: &TypeRegistry, name: &str, ty: &str) -> Option<&MethodDef> {
        let id = reg.lookup(ty).ok()?;
        reg.nearest(id, by_owner(reg, self.implementations(name)))
    }

    /// The implementations *relevant* to a receiver of static type `ty`:
    /// the resolved one plus every override on a descendant of `ty` — the
    /// "relevant portion of the hierarchy" Section 4's ⊎ plan enumerates.
    pub fn relevant_impls(&self, reg: &TypeRegistry, name: &str, ty: &str) -> Vec<&MethodDef> {
        let Ok(id) = reg.lookup(ty) else {
            return vec![];
        };
        let mut out: Vec<&MethodDef> = Vec::new();
        if let Some(base) = self.resolve(reg, name, ty) {
            out.push(base);
        }
        for d in self.implementations(name) {
            if let Ok(o) = reg.lookup(&d.owner) {
                if o != id && reg.is_subtype_or_self(o, id) {
                    out.push(d);
                }
            }
        }
        out
    }
}

/// Each implementation keyed by its owner's id (implementations on an
/// undefined type are skipped).
fn by_owner<'r, 'd>(
    reg: &'r TypeRegistry,
    defs: &'d [MethodDef],
) -> impl Iterator<Item = (excess_types::TypeId, &'d MethodDef)> + use<'r, 'd> {
    defs.iter()
        .filter_map(|d| reg.lookup(&d.owner).ok().map(|o| (o, d)))
}

/// The placeholder leaf used for formal parameter `name`.
pub fn arg_placeholder(name: &str) -> Expr {
    Expr::named(format!("$arg:{name}"))
}

/// Substitute actual arguments for `$arg:` placeholders in a stored body.
pub fn substitute_args(body: &Expr, args: &[(String, Expr)]) -> Expr {
    if let Expr::Named(n) = body {
        if let Some(stripped) = n.strip_prefix("$arg:") {
            if let Some((_, actual)) = args.iter().find(|(p, _)| p == stripped) {
                return actual.clone();
            }
        }
    }
    body.map_children(&mut |c| substitute_args(c, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_hierarchy() -> TypeRegistry {
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

    fn def(owner: &str, body: Expr) -> MethodDef {
        MethodDef {
            owner: owner.into(),
            name: "f".into(),
            params: vec![],
            returns: SchemaType::chars(),
            body,
        }
    }

    #[test]
    fn resolve_walks_up_the_hierarchy() {
        let reg = reg_with_hierarchy();
        let mut m = MethodRegistry::new();
        m.define(def("Person", Expr::input().extract("name")))
            .unwrap();
        // Student inherits Person's f.
        let r = m.resolve(&reg, "f", "Student").unwrap();
        assert_eq!(r.owner, "Person");
        // An override on Employee takes precedence for Employee.
        m.define(def("Employee", Expr::input().extract("salary")))
            .unwrap();
        assert_eq!(m.resolve(&reg, "f", "Employee").unwrap().owner, "Employee");
        assert_eq!(m.resolve(&reg, "f", "Person").unwrap().owner, "Person");
    }

    #[test]
    fn signature_must_match_on_override() {
        let mut m = MethodRegistry::new();
        m.define(def("Person", Expr::input())).unwrap();
        let bad = MethodDef {
            owner: "Employee".into(),
            name: "f".into(),
            params: vec![("x".into(), SchemaType::int4())],
            returns: SchemaType::chars(),
            body: Expr::input(),
        };
        assert!(m.define(bad).is_err());
    }

    #[test]
    fn relevant_impls_cover_the_sub_hierarchy() {
        let reg = reg_with_hierarchy();
        let mut m = MethodRegistry::new();
        m.define(def("Person", Expr::input().extract("name")))
            .unwrap();
        m.define(def("Employee", Expr::input().extract("salary")))
            .unwrap();
        let rel = m.relevant_impls(&reg, "f", "Person");
        let owners: Vec<_> = rel.iter().map(|d| d.owner.as_str()).collect();
        assert_eq!(owners, vec!["Person", "Employee"]);
        // Receiver typed Employee: only the Employee implementation.
        let rel_e = m.relevant_impls(&reg, "f", "Employee");
        assert_eq!(rel_e.len(), 1);
        assert_eq!(rel_e[0].owner, "Employee");
    }

    #[test]
    fn argument_substitution() {
        let body = Expr::input().extract("kids").set_apply(Expr::input().comp(
            excess_core::expr::Pred::eq(Expr::input().extract("name"), arg_placeholder("kname")),
        ));
        let inlined = substitute_args(&body, &[("kname".into(), Expr::str("Joe"))]);
        assert!(!format!("{inlined}").contains("$arg:"));
        assert!(format!("{inlined}").contains("\"Joe\""));
    }

    #[test]
    fn redefinition_on_same_type_replaces() {
        let mut m = MethodRegistry::new();
        m.define(def("Person", Expr::input())).unwrap();
        m.define(def("Person", Expr::input().extract("name")))
            .unwrap();
        assert_eq!(m.implementations("f").len(), 1);
    }
}
