//! Named types, the inheritance hierarchy, and attribute resolution.
//!
//! EXTRA supports "an inheritance hierarchy for top-level tuple types" with
//! multiple inheritance; "all attributes and methods of Person are also
//! attributes and methods of Student and Employee", and "any inherited
//! attribute or method can be overridden with a new type specification"
//! (Section 2.1).  This module stores type definitions, checks the
//! hierarchy is acyclic, and computes each type's *full body* (own plus
//! inherited attributes).

use crate::error::{Result, TypeError};
use crate::oid::TypeId;
use crate::schema::SchemaType;
use std::collections::{HashMap, HashSet};

/// A registered named type.  Never mutated after
/// [`TypeRegistry::define_with_supertypes`] accepts it: the registry stores
/// facts derived from it (full body, ancestors, descendants) that would
/// otherwise go stale.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// Identifier.
    pub id: TypeId,
    /// Unique name.
    pub name: String,
    /// The *declared* body (own attributes only, for tuple types).
    pub body: SchemaType,
    /// Direct supertypes, in declaration order.
    pub supertypes: Vec<TypeId>,
}

/// The hierarchy facts of one type, resolved when it is defined.
#[derive(Debug, Clone)]
struct Resolved {
    /// See [`TypeRegistry::full_body`].
    full_body: SchemaType,
    /// See [`TypeRegistry::ancestors`].
    ancestors: Vec<TypeId>,
    /// See [`TypeRegistry::descendants`].
    descendants: Vec<TypeId>,
}

/// The catalogue of named types and the `inherits` DAG.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    defs: Vec<TypeDef>,
    by_name: HashMap<String, TypeId>,
    /// Indexed like `defs`.
    resolved: Vec<Resolved>,
}

impl TypeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a type with no supertypes.
    pub fn define(&mut self, name: &str, body: SchemaType) -> Result<TypeId> {
        self.define_with_supertypes(name, body, &[])
    }

    /// Define a type that `inherits` the named supertypes, and resolve its
    /// full body, ancestors and descendants once, here.
    ///
    /// Supertypes must already be defined (forward references are not
    /// allowed by EXTRA's DDL either), which makes the hierarchy acyclic by
    /// construction and means a definition never changes what an earlier
    /// type resolved to — except that the new type joins its ancestors'
    /// descendants.  Every check runs before anything is stored, so a
    /// rejected definition leaves the registry as it was.
    pub fn define_with_supertypes(
        &mut self,
        name: &str,
        body: SchemaType,
        supertypes: &[&str],
    ) -> Result<TypeId> {
        if self.by_name.contains_key(name) {
            return Err(TypeError::DuplicateType(name.to_string()));
        }
        let sups: Vec<TypeId> = supertypes
            .iter()
            .map(|s| self.lookup(s))
            .collect::<Result<_>>()?;
        if !supertypes.is_empty() && !matches!(body, SchemaType::Tup(_)) {
            return Err(TypeError::Structure(format!(
                "type `{name}` inherits but is not a tuple type"
            )));
        }
        // Attribute conflicts between unrelated supertypes surface now
        // rather than at use.
        let full_body = self.inherit(name, &body, &sups)?;
        let ancestors = self.closure(&sups);
        let id = TypeId(self.defs.len() as u32);
        for &a in &ancestors {
            self.resolved[a.0 as usize].descendants.push(id);
        }
        self.resolved.push(Resolved {
            full_body,
            ancestors,
            descendants: Vec::new(),
        });
        self.defs.push(TypeDef {
            id,
            name: name.to_string(),
            body,
            supertypes: sups,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Resolve a name to its id.
    pub fn lookup(&self, name: &str) -> Result<TypeId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| TypeError::UnknownType(name.to_string()))
    }

    /// Definition by id.
    pub fn def(&self, id: TypeId) -> &TypeDef {
        &self.defs[id.0 as usize]
    }

    /// Name by id.
    pub fn name_of(&self, id: TypeId) -> &str {
        &self.def(id).name
    }

    /// All defined type ids.
    pub fn all_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.defs.len() as u32).map(TypeId)
    }

    /// Number of defined types.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// `true` if no types are defined.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    // ----- hierarchy queries (the `→` and `→*` relations of §3.1) -----

    /// All strict ancestors (transitive closure of `inherits`), depth-first
    /// from the last direct supertype.  Its length is the type's *depth*,
    /// the specificity that dispatch ranks by (see [`Self::nearest`]).
    pub fn ancestors(&self, id: TypeId) -> &[TypeId] {
        &self.resolved[id.0 as usize].ancestors
    }

    /// All strict descendants (types that inherit from `id`, transitively),
    /// in definition order.
    pub fn descendants(&self, id: TypeId) -> &[TypeId] {
        &self.resolved[id.0 as usize].descendants
    }

    /// `true` iff `sub` is `sup` or inherits from it (`sup →* sub`):
    /// substitutability.
    pub fn is_subtype_or_self(&self, sub: TypeId, sup: TypeId) -> bool {
        sub == sup || self.ancestors(sub).contains(&sup)
    }

    /// OID-domain **rule 4** helper: do `a` and `b` share any descendant
    /// (including themselves)?  If not, `Odom(a) ∩ Odom(b) = ∅`.
    pub fn shares_descendant(&self, a: TypeId, b: TypeId) -> bool {
        self.all_ids()
            .any(|t| self.is_subtype_or_self(t, a) && self.is_subtype_or_self(t, b))
    }

    /// The payload of the *nearest* of `candidates` that `ty` is or
    /// inherits from: the deepest one, and of equally deep ones the last.
    /// `None` when `ty` inherits from none of them.
    ///
    /// This is the one rule for "which implementation does a `ty` use":
    /// static method resolution and the run-time switch table both choose
    /// by it, so they cannot drift apart.
    pub fn nearest<T>(
        &self,
        ty: TypeId,
        candidates: impl IntoIterator<Item = (TypeId, T)>,
    ) -> Option<T> {
        candidates
            .into_iter()
            .filter(|(c, _)| self.is_subtype_or_self(ty, *c))
            .max_by_key(|(c, _)| self.ancestors(*c).len())
            .map(|(_, payload)| payload)
    }

    // ----- attribute resolution -----

    /// The *full* body of a type: inherited attributes (left-to-right,
    /// depth-first over the supertype list) followed by own attributes,
    /// with own declarations overriding inherited ones of the same name.
    ///
    /// A name inherited from two unrelated supertypes with *different*
    /// types and no local override is an [`TypeError::AttributeConflict`]
    /// when the type is defined; identical types merge silently (the
    /// common diamond case, e.g. two paths to `Person`).
    ///
    /// Non-tuple types are returned as declared.
    pub fn full_body(&self, id: TypeId) -> &SchemaType {
        &self.resolved[id.0 as usize].full_body
    }

    /// The full body a type `name` declared as `body` over `sups` would
    /// have (see [`Self::full_body`]).
    fn inherit(&self, name: &str, body: &SchemaType, sups: &[TypeId]) -> Result<SchemaType> {
        let SchemaType::Tup(own) = body else {
            return Ok(body.clone());
        };
        let mut fields: Vec<(String, SchemaType)> = Vec::new();
        for &sup in sups {
            let SchemaType::Tup(sup_fields) = self.full_body(sup) else {
                return Err(TypeError::Structure(format!(
                    "supertype `{}` of `{name}` is not a tuple type",
                    self.name_of(sup),
                )));
            };
            for (n, t) in sup_fields {
                match fields.iter().find(|(m, _)| m == n) {
                    None => fields.push((n.clone(), t.clone())),
                    Some((_, existing)) if existing == t => {} // diamond merge
                    Some(_) => {
                        // Conflict unless the subtype overrides locally.
                        if !own.iter().any(|(m, _)| m == n) {
                            return Err(TypeError::AttributeConflict {
                                ty: name.to_string(),
                                attr: n.clone(),
                            });
                        }
                    }
                }
            }
        }
        for (n, t) in own {
            if let Some(slot) = fields.iter_mut().find(|(m, _)| m == n) {
                slot.1 = t.clone(); // override inherited attribute
            } else {
                fields.push((n.clone(), t.clone()));
            }
        }
        Ok(SchemaType::Tup(fields))
    }

    /// The strict ancestors of a type whose direct supertypes are `sups`.
    fn closure(&self, sups: &[TypeId]) -> Vec<TypeId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<TypeId> = sups.to_vec();
        while let Some(t) = stack.pop() {
            if seen.insert(t) {
                out.push(t);
                stack.extend(self.def(t).supertypes.iter().copied());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_body() -> SchemaType {
        SchemaType::tuple([("ssnum", SchemaType::int4()), ("name", SchemaType::chars())])
    }

    fn reg_with_person() -> (TypeRegistry, TypeId) {
        let mut r = TypeRegistry::new();
        let p = r.define("Person", person_body()).unwrap();
        (r, p)
    }

    #[test]
    fn single_inheritance_merges_attributes() {
        let (mut r, p) = reg_with_person();
        let e = r
            .define_with_supertypes(
                "Employee",
                SchemaType::tuple([("salary", SchemaType::int4())]),
                &["Person"],
            )
            .unwrap();
        let SchemaType::Tup(fields) = r.full_body(e) else {
            panic!()
        };
        let names: Vec<_> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["ssnum", "name", "salary"]);
        assert!(r.is_subtype_or_self(e, p));
        assert!(!r.is_subtype_or_self(p, e));
    }

    #[test]
    fn override_changes_attribute_type() {
        // "Any inherited attribute … can be overridden with a new type
        // specification" (Section 2.1).
        let (mut r, _) = reg_with_person();
        let s = r
            .define_with_supertypes(
                "Student",
                SchemaType::tuple([("name", SchemaType::int4())]), // override!
                &["Person"],
            )
            .unwrap();
        let SchemaType::Tup(fields) = r.full_body(s) else {
            panic!()
        };
        let name_ty = &fields.iter().find(|(n, _)| n == "name").unwrap().1;
        assert_eq!(*name_ty, SchemaType::int4());
        // Position of the inherited attribute is preserved.
        assert_eq!(fields[1].0, "name");
    }

    #[test]
    fn diamond_inheritance_merges_silently() {
        let (mut r, _) = reg_with_person();
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
        // TA inherits Person twice (via Employee and Student): fine.
        let ta = r
            .define_with_supertypes(
                "TA",
                SchemaType::tuple::<_, String>([]),
                &["Employee", "Student"],
            )
            .unwrap();
        let SchemaType::Tup(fields) = r.full_body(ta) else {
            panic!()
        };
        let names: Vec<_> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["ssnum", "name", "salary", "gpa"]);
    }

    #[test]
    fn conflicting_unrelated_attributes_require_override() {
        let mut r = TypeRegistry::new();
        r.define("A", SchemaType::tuple([("x", SchemaType::int4())]))
            .unwrap();
        r.define("B", SchemaType::tuple([("x", SchemaType::chars())]))
            .unwrap();
        let err = r
            .define_with_supertypes("C", SchemaType::tuple::<_, String>([]), &["A", "B"])
            .unwrap_err();
        assert!(matches!(err, TypeError::AttributeConflict { .. }));
        // With a local override it is accepted.
        r.define_with_supertypes(
            "C",
            SchemaType::tuple([("x", SchemaType::float4())]),
            &["A", "B"],
        )
        .unwrap();
    }

    #[test]
    fn duplicate_definition_rejected() {
        let (mut r, _) = reg_with_person();
        assert!(matches!(
            r.define("Person", person_body()),
            Err(TypeError::DuplicateType(_))
        ));
    }

    #[test]
    fn unknown_supertype_rejected() {
        let mut r = TypeRegistry::new();
        assert!(matches!(
            r.define_with_supertypes("X", SchemaType::tuple::<_, String>([]), &["Nope"]),
            Err(TypeError::UnknownType(_))
        ));
    }

    #[test]
    fn non_tuple_cannot_inherit() {
        let (mut r, _) = reg_with_person();
        assert!(r
            .define_with_supertypes("Weird", SchemaType::int4(), &["Person"])
            .is_err());
    }

    #[test]
    fn descendants_and_shared_descendants() {
        let (mut r, p) = reg_with_person();
        let e = r
            .define_with_supertypes(
                "Employee",
                SchemaType::tuple([("salary", SchemaType::int4())]),
                &["Person"],
            )
            .unwrap();
        let s = r
            .define_with_supertypes(
                "Student",
                SchemaType::tuple([("gpa", SchemaType::float4())]),
                &["Person"],
            )
            .unwrap();
        let d: HashSet<_> = r.descendants(p).iter().copied().collect();
        assert_eq!(d, HashSet::from([e, s]));
        // Employee and Student share no descendant here…
        assert!(!r.shares_descendant(e, s));
        // …until a TA type inherits from both (rule 5 scenario).
        let ta = r
            .define_with_supertypes(
                "TA",
                SchemaType::tuple::<_, String>([]),
                &["Employee", "Student"],
            )
            .unwrap();
        assert!(r.shares_descendant(e, s));
        assert!(r.is_subtype_or_self(ta, e) && r.is_subtype_or_self(ta, s));
    }

    #[test]
    fn ancestors_are_transitive() {
        let (mut r, p) = reg_with_person();
        let e = r
            .define_with_supertypes(
                "Employee",
                SchemaType::tuple([("salary", SchemaType::int4())]),
                &["Person"],
            )
            .unwrap();
        let m = r
            .define_with_supertypes("Manager", SchemaType::tuple::<_, String>([]), &["Employee"])
            .unwrap();
        let a: HashSet<_> = r.ancestors(m).iter().copied().collect();
        assert_eq!(a, HashSet::from([e, p]));
    }
}
