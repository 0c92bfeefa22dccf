//! Domain membership: `dom(S)` and `DOM(S)` from Section 3.1, including the
//! OID-domain semantics (rules 1–5) under multiple inheritance.
//!
//! `dom(S)` is the structural domain of a schema; `DOM(S)` additionally
//! closes over subtypes (substitutability): `DOM(S) = dom(S) ∪ ⋃ dom(Sᵢ)`
//! for every `S → Sᵢ` in the hierarchy.  For `ref` nodes, the amended
//! definition (v') makes `dom(ref S) = R(S) ∪ ⋃ R(Sᵢ)` — a reference slot
//! typed `ref A` accepts OIDs minted for `A` or any of its descendants.
//!
//! The five OID-domain rules are surfaced as checkable predicates here and
//! verified as laws in `tests/oid_domain_laws.rs`:
//!
//! 1. every `Odom(t)` is infinite — by construction (`u64` serial space);
//! 2. `R → S ⇒ |Odom(R) − Odom(S)| = ∞` — the cell `R(R)` is never shared;
//! 3. `R → S ⇒ Odom(S) ⊆ Odom(R)`;
//! 4. no shared descendants ⇒ disjoint OID domains;
//! 5. `A → B` (every type in B inherits every type in A) ⇒
//!    `⋃ Odom(Bⱼ) ⊆ ⋂ Odom(Aᵢ)`.

use crate::error::{Result, TypeError};
use crate::oid::{Oid, TypeId};
use crate::schema::SchemaType;
use crate::store::ObjectStore;
use crate::types::TypeRegistry;
use crate::value::Value;

/// `oid ∈ Odom(ty)` under the amended definition (v'): the OID's minting
/// type is `ty` itself or one of its descendants.
pub fn odom_contains(reg: &TypeRegistry, ty: TypeId, oid: Oid) -> bool {
    reg.is_subtype_or_self(oid.minted, ty)
}

/// `oid ∈ R(ty)`: strict partition-cell membership (pre-(v') semantics,
/// kept to let tests contrast `dom` with `DOM`).
pub fn partition_cell_contains(ty: TypeId, oid: Oid) -> bool {
    oid.minted == ty
}

/// Check `v ∈ DOM(s)` (substitutability semantics).  Nulls (`dne`, `unk`)
/// are members of every domain, per the semantic interpretation of the null
/// constants in Section 3.2.4.
pub fn check_dom(v: &Value, s: &SchemaType, reg: &TypeRegistry) -> Result<()> {
    check(v, s, reg, true).map_err(|f| f.into_error(reg))
}

/// Check `v ∈ dom(s)`: the strict structural domain, with no subtype
/// substitution at `Named` types and strict `R(n)` membership at `ref`
/// nodes.  Exists so tests can witness `dom(S) ⊆ DOM(S)` being strict.
pub fn check_dom_exact(v: &Value, s: &SchemaType, reg: &TypeRegistry) -> Result<()> {
    check(v, s, reg, false).map_err(|f| f.into_error(reg))
}

/// Determine the *exact* (most specific) type of a value, for the
/// Section 4 dispatch mechanisms and the per-type extents.
///
/// * references dereference to the store's recorded exact type;
/// * tuples are shape-matched: among all named tuple types whose full body
///   the value inhabits *exactly* (`dom`, not `DOM`), the deepest one wins,
///   and of equally deep ones the first defined.
///
/// Returns `None` when no named type matches.  A failed match builds no
/// diagnostic, so this costs one conformance walk per candidate type.
pub fn exact_type_of(v: &Value, reg: &TypeRegistry, store: &ObjectStore) -> Option<TypeId> {
    if let Value::Ref(oid) = v {
        return store.exact_type(*oid).ok();
    }
    let mut best: Option<TypeId> = None;
    for ty in reg.all_ids() {
        let body = reg.full_body(ty);
        let deeper = best.is_none_or(|b| reg.ancestors(ty).len() > reg.ancestors(b).len());
        if deeper && matches!(body, SchemaType::Tup(_)) && check(v, body, reg, false).is_ok() {
            best = Some(ty);
        }
    }
    best
}

/// Why a value is not in a domain, borrowed from what the check was given.
/// The walker returns this instead of a [`TypeError`] so that a caller that
/// only needs the verdict — the exact-type test, a `DOM` candidate that a
/// later candidate replaces — never formats the value; [`Failure::into_error`]
/// builds the message at the public boundary.
enum Failure<'a> {
    /// `found` is not of the kind, arity or scalar type `expected` asks for.
    Mismatch {
        expected: &'a SchemaType,
        found: &'a Value,
    },
    /// A tuple of the right arity lacks a field its schema names.
    NoSuchField(&'a str),
    /// A fixed-length array of the wrong length.
    ArrayLength { expected: usize, found: usize },
    /// An OID outside `R(name)` (exact) or `Odom(name)` (substituting).
    OutsideRef { name: &'a str, oid: Oid },
    /// A type name the registry does not define.
    UnknownType(&'a str),
}

impl Failure<'_> {
    fn into_error(self, reg: &TypeRegistry) -> TypeError {
        match self {
            Failure::Mismatch { expected, found } => TypeError::DomainViolation {
                expected: expected.to_string(),
                found: format!("{} `{}`", found.kind_name(), found),
            },
            Failure::NoSuchField(field) => TypeError::NoSuchField {
                field: field.to_string(),
            },
            Failure::ArrayLength { expected, found } => TypeError::ArrayLength { expected, found },
            Failure::OutsideRef { name, oid } => TypeError::DomainViolation {
                expected: format!("ref {name}"),
                found: format!("OID {oid} (minted for {})", reg.name_of(oid.minted)),
            },
            Failure::UnknownType(name) => TypeError::UnknownType(name.to_string()),
        }
    }
}

/// The one conformance walker behind `dom` (`substituting = false`) and
/// `DOM` (`true`).
fn check<'a>(
    v: &'a Value,
    s: &'a SchemaType,
    reg: &'a TypeRegistry,
    substituting: bool,
) -> std::result::Result<(), Failure<'a>> {
    if v.is_null() {
        return Ok(());
    }
    let mismatch = || Failure::Mismatch {
        expected: s,
        found: v,
    };
    let lookup = |name: &'a str| reg.lookup(name).map_err(|_| Failure::UnknownType(name));
    match s {
        SchemaType::Val(st) => match v {
            Value::Scalar(sc) if sc.scalar_type() == *st => Ok(()),
            // int4 widens into float4 slots (numeric equality already
            // identifies 5 and 5.0; see crate::scalar).
            Value::Scalar(sc)
                if *st == crate::scalar::ScalarType::Float4
                    && sc.scalar_type() == crate::scalar::ScalarType::Int4 =>
            {
                Ok(())
            }
            _ => Err(mismatch()),
        },
        SchemaType::Tup(fields) => {
            let Value::Tuple(t) = v else {
                return Err(mismatch());
            };
            if t.arity() != fields.len() {
                return Err(mismatch());
            }
            for (name, fty) in fields {
                let fv = t.get(name).ok_or(Failure::NoSuchField(name))?;
                check(fv, fty, reg, substituting)?;
            }
            Ok(())
        }
        SchemaType::Set(elem) => {
            let Value::Set(ms) = v else {
                return Err(mismatch());
            };
            // "every element of the multiset appears in the domain of the
            // child of the multiset node" (definition iii); DE(x) ⊆ dom(S1)
            // means checking distinct elements suffices.
            for (e, _) in ms.iter_counted() {
                check(e, elem, reg, substituting)?;
            }
            Ok(())
        }
        SchemaType::Arr { elem, len } => {
            let Value::Array(a) = v else {
                return Err(mismatch());
            };
            if let Some(n) = len {
                if a.len() != *n {
                    return Err(Failure::ArrayLength {
                        expected: *n,
                        found: a.len(),
                    });
                }
            }
            for e in a.iter() {
                check(e, elem, reg, substituting)?;
            }
            Ok(())
        }
        SchemaType::Ref(name) => {
            let Value::Ref(oid) = v else {
                return Err(mismatch());
            };
            let ty = lookup(name)?;
            let ok = if substituting {
                odom_contains(reg, ty, *oid) // definition (v')
            } else {
                partition_cell_contains(ty, *oid) // strict R(n)
            };
            if ok {
                Ok(())
            } else {
                Err(Failure::OutsideRef { name, oid: *oid })
            }
        }
        SchemaType::Named(name) => {
            let ty = lookup(name)?;
            let mut verdict = check(v, reg.full_body(ty), reg, substituting);
            if substituting {
                // DOM(S): the value may inhabit the named type or any of its
                // descendants (substitutability); if none fits, the last
                // candidate's failure is the one reported.
                for &d in reg.descendants(ty) {
                    if verdict.is_ok() {
                        break;
                    }
                    verdict = check(v, reg.full_body(d), reg, substituting);
                }
            }
            verdict
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::OidAllocator;

    fn university() -> (TypeRegistry, TypeId, TypeId, TypeId) {
        let mut r = TypeRegistry::new();
        let person = r
            .define(
                "Person",
                SchemaType::tuple([("ssnum", SchemaType::int4()), ("name", SchemaType::chars())]),
            )
            .unwrap();
        let employee = r
            .define_with_supertypes(
                "Employee",
                SchemaType::tuple([("salary", SchemaType::int4())]),
                &["Person"],
            )
            .unwrap();
        let student = r
            .define_with_supertypes(
                "Student",
                SchemaType::tuple([("gpa", SchemaType::float4())]),
                &["Person"],
            )
            .unwrap();
        (r, person, employee, student)
    }

    fn person_val() -> Value {
        Value::tuple([("ssnum", Value::int(1)), ("name", Value::str("Ann"))])
    }

    fn employee_val() -> Value {
        Value::tuple([
            ("ssnum", Value::int(2)),
            ("name", Value::str("Bob")),
            ("salary", Value::int(50_000)),
        ])
    }

    #[test]
    fn scalar_domains() {
        let (r, ..) = university();
        check_dom(&Value::int(5), &SchemaType::int4(), &r).unwrap();
        assert!(check_dom(&Value::str("x"), &SchemaType::int4(), &r).is_err());
        // int4 widens into float4.
        check_dom(&Value::int(5), &SchemaType::float4(), &r).unwrap();
        assert!(check_dom(&Value::float(5.0), &SchemaType::int4(), &r).is_err());
    }

    #[test]
    fn nulls_inhabit_every_domain() {
        let (r, ..) = university();
        check_dom(&Value::dne(), &SchemaType::int4(), &r).unwrap();
        check_dom(&Value::unk(), &SchemaType::set(SchemaType::chars()), &r).unwrap();
    }

    #[test]
    fn substitutability_for_named_tuples() {
        // DOM(Person) contains Employee tuples; dom(Person) does not.
        let (r, ..) = university();
        let s = SchemaType::named("Person");
        check_dom(&person_val(), &s, &r).unwrap();
        check_dom(&employee_val(), &s, &r).unwrap();
        check_dom_exact(&person_val(), &s, &r).unwrap();
        assert!(check_dom_exact(&employee_val(), &s, &r).is_err());
    }

    #[test]
    fn collections_inherit_substitutability() {
        // "arrays of A can also have B's in them" (Section 3.1).
        let (r, ..) = university();
        let arr = SchemaType::array(SchemaType::named("Person"));
        let v = Value::array([person_val(), employee_val()]);
        check_dom(&v, &arr, &r).unwrap();
    }

    #[test]
    fn ref_domains_follow_rule_v_prime() {
        // ref Person accepts OIDs minted for Employee under DOM, not dom.
        let (r, person, employee, _) = university();
        let mut alloc = OidAllocator::new();
        let e_oid = alloc.mint(employee);
        let s = SchemaType::reference("Person");
        check_dom(&Value::Ref(e_oid), &s, &r).unwrap();
        assert!(check_dom_exact(&Value::Ref(e_oid), &s, &r).is_err());
        // The reverse is never allowed: ref Employee rejects Person OIDs.
        let p_oid = alloc.mint(person);
        assert!(check_dom(&Value::Ref(p_oid), &SchemaType::reference("Employee"), &r).is_err());
    }

    #[test]
    fn ref_a_to_ref_b_needs_hierarchy_not_value_shape() {
        // The paper stresses "ref A → ref B … is different than A → B":
        // an OID of an unrelated type with identical structure is rejected.
        let (mut r, ..) = university();
        r.define(
            "Clone",
            SchemaType::tuple([("ssnum", SchemaType::int4()), ("name", SchemaType::chars())]),
        )
        .unwrap();
        let clone_ty = r.lookup("Clone").unwrap();
        let mut alloc = OidAllocator::new();
        let c = alloc.mint(clone_ty);
        assert!(check_dom(&Value::Ref(c), &SchemaType::reference("Person"), &r).is_err());
    }

    #[test]
    fn fixed_length_arrays_enforced() {
        let (r, ..) = university();
        let s = SchemaType::fixed_array(SchemaType::int4(), 3);
        check_dom(
            &Value::array([Value::int(1), Value::int(2), Value::int(3)]),
            &s,
            &r,
        )
        .unwrap();
        let err = check_dom(&Value::array([Value::int(1)]), &s, &r).unwrap_err();
        assert!(matches!(
            err,
            TypeError::ArrayLength {
                expected: 3,
                found: 1
            }
        ));
    }

    #[test]
    fn variable_length_arrays_accept_empty() {
        // "it is legal for a variable-length array to be empty" (def. iv).
        let (r, ..) = university();
        check_dom(
            &Value::array([]),
            &SchemaType::array(SchemaType::int4()),
            &r,
        )
        .unwrap();
    }

    #[test]
    fn multiset_elements_checked_once_per_distinct_value() {
        let (r, ..) = university();
        let s = SchemaType::set(SchemaType::int4());
        check_dom(&Value::set([Value::int(1), Value::int(1)]), &s, &r).unwrap();
        assert!(check_dom(&Value::set([Value::str("no")]), &s, &r).is_err());
    }

    #[test]
    fn tuple_arity_must_match() {
        let (r, ..) = university();
        let s = SchemaType::tuple([("a", SchemaType::int4())]);
        assert!(check_dom(
            &Value::tuple([("a", Value::int(1)), ("b", Value::int(2))]),
            &s,
            &r
        )
        .is_err());
    }
}
