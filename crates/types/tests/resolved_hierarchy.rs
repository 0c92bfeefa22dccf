//! The hierarchy facts the registry resolves at `define`, and the exact-type
//! test built on them, against a reference that recomputes everything from
//! the `TypeDef`s on every call — the way the registry worked before it
//! stored anything.
//!
//! Each case grows a random hierarchy on top of a fixed one that has
//! single inheritance, a diamond (a rule-5 `TA` under `Employee` and
//! `Student`), an override that changes an attribute's type, siblings of
//! equal arity and a shape twin of `Person` with its own identity
//! (`Clone`).  Random definitions include ones the registry must reject
//! (duplicate names, unknown supertypes, non-tuple types that inherit,
//! unresolved attribute conflicts); each rejection must leave the registry
//! exactly as it was.  Random values — conforming, perturbed with
//! `dne`/`unk`, wrong kinds, missing or renamed fields and references of
//! every type — are then checked against every type's schemas.

use excess_types::domain::{check_dom, check_dom_exact, exact_type_of};
use excess_types::{
    ObjectStore, Oid, ScalarType, SchemaType, TypeError, TypeId, TypeRegistry, Value,
};
use proptest::prelude::*;
use std::collections::HashSet;

// ----- the reference: every fact recomputed from the definitions -----

fn ref_ancestors(reg: &TypeRegistry, id: TypeId) -> Vec<TypeId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut stack: Vec<TypeId> = reg.def(id).supertypes.clone();
    while let Some(t) = stack.pop() {
        if seen.insert(t) {
            out.push(t);
            stack.extend(reg.def(t).supertypes.iter().copied());
        }
    }
    out
}

fn ref_is_subtype_or_self(reg: &TypeRegistry, sub: TypeId, sup: TypeId) -> bool {
    sub == sup || ref_ancestors(reg, sub).contains(&sup)
}

fn ref_descendants(reg: &TypeRegistry, id: TypeId) -> Vec<TypeId> {
    reg.all_ids()
        .filter(|&t| t != id && ref_is_subtype_or_self(reg, t, id))
        .collect()
}

fn ref_full_body(reg: &TypeRegistry, id: TypeId) -> Result<SchemaType, TypeError> {
    let def = reg.def(id);
    let SchemaType::Tup(own) = &def.body else {
        return Ok(def.body.clone());
    };
    let mut fields: Vec<(String, SchemaType)> = Vec::new();
    for &sup in &def.supertypes {
        let SchemaType::Tup(sup_fields) = ref_full_body(reg, sup)? else {
            return Err(TypeError::Structure("non-tuple supertype".into()));
        };
        for (n, t) in sup_fields {
            match fields.iter().find(|(m, _)| *m == n) {
                None => fields.push((n, t)),
                Some((_, existing)) if *existing == t => {}
                Some(_) => {
                    if !own.iter().any(|(m, _)| *m == n) {
                        return Err(TypeError::AttributeConflict {
                            ty: def.name.clone(),
                            attr: n,
                        });
                    }
                }
            }
        }
    }
    for (n, t) in own {
        if let Some(slot) = fields.iter_mut().find(|(m, _)| m == n) {
            slot.1 = t.clone();
        } else {
            fields.push((n.clone(), t.clone()));
        }
    }
    Ok(SchemaType::Tup(fields))
}

fn ref_mismatch(expected: &SchemaType, found: &Value) -> TypeError {
    TypeError::DomainViolation {
        expected: expected.to_string(),
        found: format!("{} `{}`", found.kind_name(), found),
    }
}

/// The walker that formatted every failure as it went.
fn ref_check(
    v: &Value,
    s: &SchemaType,
    reg: &TypeRegistry,
    substituting: bool,
) -> Result<(), TypeError> {
    if v.is_null() {
        return Ok(());
    }
    match s {
        SchemaType::Val(st) => match v {
            Value::Scalar(sc) if sc.scalar_type() == *st => Ok(()),
            Value::Scalar(sc)
                if *st == ScalarType::Float4 && sc.scalar_type() == ScalarType::Int4 =>
            {
                Ok(())
            }
            _ => Err(ref_mismatch(s, v)),
        },
        SchemaType::Tup(fields) => {
            let Value::Tuple(t) = v else {
                return Err(ref_mismatch(s, v));
            };
            if t.arity() != fields.len() {
                return Err(ref_mismatch(s, v));
            }
            for (name, fty) in fields {
                ref_check(t.extract(name)?, fty, reg, substituting)?;
            }
            Ok(())
        }
        SchemaType::Set(elem) => {
            let Value::Set(ms) = v else {
                return Err(ref_mismatch(s, v));
            };
            for (e, _) in ms.iter_counted() {
                ref_check(e, elem, reg, substituting)?;
            }
            Ok(())
        }
        SchemaType::Arr { elem, len } => {
            let Value::Array(a) = v else {
                return Err(ref_mismatch(s, v));
            };
            if let Some(n) = len {
                if a.len() != *n {
                    return Err(TypeError::ArrayLength {
                        expected: *n,
                        found: a.len(),
                    });
                }
            }
            for e in a.iter() {
                ref_check(e, elem, reg, substituting)?;
            }
            Ok(())
        }
        SchemaType::Ref(name) => {
            let Value::Ref(oid) = v else {
                return Err(ref_mismatch(s, v));
            };
            let ty = reg.lookup(name)?;
            let ok = if substituting {
                ref_is_subtype_or_self(reg, oid.minted, ty)
            } else {
                oid.minted == ty
            };
            if ok {
                Ok(())
            } else {
                Err(TypeError::DomainViolation {
                    expected: format!("ref {name}"),
                    found: format!("OID {oid} (minted for {})", reg.name_of(oid.minted)),
                })
            }
        }
        SchemaType::Named(name) => {
            let ty = reg.lookup(name)?;
            if substituting {
                let mut candidates = vec![ty];
                candidates.extend(ref_descendants(reg, ty));
                let mut last_err = None;
                for c in candidates {
                    let body = ref_full_body(reg, c)?;
                    match ref_check(v, &body, reg, substituting) {
                        Ok(()) => return Ok(()),
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(last_err.unwrap_or_else(|| ref_mismatch(s, v)))
            } else {
                ref_check(v, &ref_full_body(reg, ty)?, reg, substituting)
            }
        }
    }
}

/// The exact-type test as it was: every type's body recomputed, every
/// candidate checked with the formatting walker.
fn ref_exact_type(v: &Value, reg: &TypeRegistry, store: &ObjectStore) -> Option<TypeId> {
    if let Value::Ref(oid) = v {
        return store.exact_type(*oid).ok();
    }
    let mut best: Option<TypeId> = None;
    let mut best_depth = 0usize;
    for ty in reg.all_ids() {
        let Ok(body) = ref_full_body(reg, ty) else {
            continue;
        };
        if !matches!(body, SchemaType::Tup(_)) {
            continue;
        }
        if ref_check(v, &body, reg, false).is_ok() {
            let depth = ref_ancestors(reg, ty).len();
            if best.is_none() || depth > best_depth {
                best = Some(ty);
                best_depth = depth;
            }
        }
    }
    best
}

// ----- generation -----

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

fn fixed_hierarchy() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    let tuple = |fs: &[(&str, SchemaType)]| SchemaType::tuple(fs.iter().cloned());
    r.define(
        "Person",
        tuple(&[("ssnum", SchemaType::int4()), ("name", SchemaType::chars())]),
    )
    .unwrap();
    r.define_with_supertypes(
        "Employee",
        tuple(&[
            ("salary", SchemaType::int4()),
            ("manager", SchemaType::reference("Employee")),
        ]),
        &["Person"],
    )
    .unwrap();
    r.define_with_supertypes(
        "Student",
        tuple(&[
            ("gpa", SchemaType::float4()),
            ("advisor", SchemaType::reference("Employee")),
        ]),
        &["Person"],
    )
    .unwrap();
    r.define_with_supertypes(
        "TA",
        tuple(&[("hours", SchemaType::int4())]),
        &["Employee", "Student"],
    )
    .unwrap();
    r.define_with_supertypes(
        "Renamed",
        tuple(&[("name", SchemaType::int4())]),
        &["Person"],
    )
    .unwrap();
    r.define(
        "Clone",
        tuple(&[("ssnum", SchemaType::int4()), ("name", SchemaType::chars())]),
    )
    .unwrap();
    r.define(
        "Dept",
        tuple(&[
            ("dname", SchemaType::chars()),
            ("staff", SchemaType::set(SchemaType::named("Person"))),
            ("floors", SchemaType::fixed_array(SchemaType::int4(), 2)),
        ]),
    )
    .unwrap();
    r.define("Code", SchemaType::int4()).unwrap();
    r
}

const NAMES: &[&str] = &["A", "B", "C", "D", "E", "Person", "TA", "Code"];
const FIELDS: &[&str] = &["ssnum", "name", "salary", "gpa", "x", "y"];

fn random_field_type(g: &mut Rng, defined: &[String]) -> SchemaType {
    match g.below(8) {
        0 => SchemaType::int4(),
        1 => SchemaType::float4(),
        2 => SchemaType::chars(),
        3 => SchemaType::reference(g.pick(defined).clone()),
        4 => SchemaType::set(SchemaType::int4()),
        5 => SchemaType::fixed_array(SchemaType::chars(), 1 + g.below(2)),
        6 => SchemaType::named(g.pick(defined).clone()),
        _ => SchemaType::array(SchemaType::reference(g.pick(defined).clone())),
    }
}

/// Everything a rejected definition must leave untouched.
fn snapshot(reg: &TypeRegistry) -> String {
    let mut out = format!("len {}\n", reg.len());
    for n in NAMES
        .iter()
        .chain(&["Employee", "Student", "Renamed", "Clone"])
    {
        out += &format!("lookup {n} = {:?}\n", reg.lookup(n).ok());
    }
    for id in reg.all_ids() {
        let d = reg.def(id);
        out += &format!(
            "{:?} {} {} {:?} | {} | {:?} | {:?}\n",
            d.id,
            d.name,
            d.body,
            d.supertypes,
            reg.full_body(id),
            reg.ancestors(id),
            reg.descendants(id)
        );
    }
    out
}

/// Attempt a handful of random definitions; check each rejection rolls
/// back completely.  Returns how many were rejected.
fn grow(g: &mut Rng, reg: &mut TypeRegistry) -> usize {
    let mut rejected = 0;
    for _ in 0..1 + g.below(7) {
        let defined: Vec<String> = reg.all_ids().map(|t| reg.name_of(t).to_string()).collect();
        let name = *g.pick(NAMES);
        let mut sups: Vec<String> = Vec::new();
        for _ in 0..g.below(3) {
            let s = if g.one_in(12) {
                "Ghost".to_string()
            } else {
                g.pick(&defined).clone()
            };
            if !sups.contains(&s) {
                sups.push(s);
            }
        }
        let body = if g.one_in(6) {
            SchemaType::int4()
        } else {
            let mut fs: Vec<(String, SchemaType)> = Vec::new();
            for _ in 0..g.below(4) {
                let f = g.pick(FIELDS).to_string();
                if !fs.iter().any(|(n, _)| *n == f) {
                    fs.push((f, random_field_type(g, &defined)));
                }
            }
            SchemaType::Tup(fs)
        };
        let before = snapshot(reg);
        let sup_refs: Vec<&str> = sups.iter().map(String::as_str).collect();
        if reg.define_with_supertypes(name, body, &sup_refs).is_err() {
            rejected += 1;
            assert_eq!(snapshot(reg), before, "a rejected define left a trace");
        }
    }
    rejected
}

/// References of every type: one stored object per type, so a top-level
/// `Ref` has an exact type in the store, and refs inside values point at
/// them.
fn objects(reg: &TypeRegistry) -> (ObjectStore, Vec<Oid>) {
    let mut store = ObjectStore::new();
    let oids = reg
        .all_ids()
        .map(|t| store.create_unchecked(t, Value::dne()))
        .collect();
    (store, oids)
}

/// A value of schema `s`, perturbed now and then: a null, a wrong kind, a
/// reference of any type, a missing, renamed or extra field, an array of
/// the wrong length.
fn value(g: &mut Rng, reg: &TypeRegistry, oids: &[Oid], s: &SchemaType, depth: usize) -> Value {
    if g.one_in(10) || depth == 0 {
        return match g.below(6) {
            0 => Value::dne(),
            1 => Value::unk(),
            2 => Value::int(g.below(5) as i32),
            3 => Value::str("s"),
            4 => Value::Ref(*g.pick(oids)),
            _ => Value::tuple([("x", Value::int(1))]),
        };
    }
    match s {
        SchemaType::Val(ScalarType::Int4) => Value::int(g.below(9) as i32),
        SchemaType::Val(ScalarType::Float4) if g.one_in(2) => Value::int(3),
        SchemaType::Val(ScalarType::Float4) => Value::float(0.5),
        SchemaType::Val(ScalarType::Bool) => Value::bool(g.one_in(2)),
        SchemaType::Val(_) => Value::str(*g.pick(&["a", "b"])),
        SchemaType::Tup(fs) => {
            let mut out: Vec<(String, Value)> = fs
                .iter()
                .map(|(n, t)| (n.clone(), value(g, reg, oids, t, depth - 1)))
                .collect();
            match g.below(12) {
                0 => {
                    out.pop();
                }
                1 if !out.is_empty() => {
                    let i = g.below(out.len());
                    out[i].0 = g.pick(FIELDS).to_string();
                    let mut seen = HashSet::new();
                    out.retain(|(n, _)| seen.insert(n.clone()));
                }
                2 if !out.iter().any(|(n, _)| n == "extra") => {
                    out.push(("extra".into(), Value::int(0)));
                }
                _ => {}
            }
            Value::tuple(out)
        }
        SchemaType::Set(e) => {
            Value::set((0..g.below(3)).map(|_| value(g, reg, oids, e, depth - 1)))
        }
        SchemaType::Arr { elem, len } => {
            let n = match len {
                Some(n) if !g.one_in(6) => *n,
                _ => g.below(3),
            };
            Value::array((0..n).map(|_| value(g, reg, oids, elem, depth - 1)))
        }
        SchemaType::Ref(n) => {
            let Ok(ty) = reg.lookup(n) else {
                return Value::Ref(*g.pick(oids));
            };
            // A reference to the type or one of its descendants, else any.
            let mut fits: Vec<Oid> = oids
                .iter()
                .copied()
                .filter(|o| ref_is_subtype_or_self(reg, o.minted, ty))
                .collect();
            if fits.is_empty() || g.one_in(4) {
                fits = oids.to_vec();
            }
            Value::Ref(*g.pick(&fits))
        }
        SchemaType::Named(n) => {
            let Ok(ty) = reg.lookup(n) else {
                return Value::dne();
            };
            // The named type or one of its descendants (substitution).
            let mut cands = vec![ty];
            cands.extend(ref_descendants(reg, ty));
            let c = *g.pick(&cands);
            match ref_full_body(reg, c) {
                Ok(body) => value(g, reg, oids, &body, depth - 1),
                Err(_) => Value::dne(),
            }
        }
    }
}

// ----- the properties -----

fn stored_facts_equal_recomputation(reg: &TypeRegistry) {
    for id in reg.all_ids() {
        let name = reg.name_of(id);
        assert_eq!(
            reg.full_body(id),
            &ref_full_body(reg, id).unwrap(),
            "full body of {name}"
        );
        assert_eq!(
            reg.ancestors(id),
            ref_ancestors(reg, id),
            "ancestors of {name}"
        );
        assert_eq!(
            reg.descendants(id),
            ref_descendants(reg, id),
            "descendants of {name}"
        );
    }
}

fn checks_equal_reference(reg: &TypeRegistry, v: &Value, s: &SchemaType) {
    let text = |r: Result<(), TypeError>| r.map_err(|e| e.to_string());
    assert_eq!(
        text(check_dom(v, s, reg)),
        text(ref_check(v, s, reg, true)),
        "DOM({s}) of {v}"
    );
    assert_eq!(
        text(check_dom_exact(v, s, reg)),
        text(ref_check(v, s, reg, false)),
        "dom({s}) of {v}"
    );
}

fn case(seed: u64) -> usize {
    let mut g = Rng(seed);
    let mut reg = fixed_hierarchy();
    let rejected = grow(&mut g, &mut reg);
    stored_facts_equal_recomputation(&reg);

    let (store, oids) = objects(&reg);
    let mut schemas: Vec<SchemaType> = Vec::new();
    for id in reg.all_ids() {
        let n = reg.name_of(id);
        schemas.push(SchemaType::named(n));
        schemas.push(SchemaType::reference(n));
        schemas.push(SchemaType::set(SchemaType::named(n)));
        schemas.push(reg.full_body(id).clone());
    }
    schemas.push(SchemaType::named("Ghost"));
    let mut values: Vec<Value> = oids.iter().map(|&o| Value::Ref(o)).collect();
    for _ in 0..24 {
        let s = g.pick(&schemas).clone();
        values.push(value(&mut g, &reg, &oids, &s, 4));
    }
    for v in &values {
        assert_eq!(
            exact_type_of(v, &reg, &store),
            ref_exact_type(v, &reg, &store),
            "exact type of {v}"
        );
        for s in &schemas {
            checks_equal_reference(&reg, v, s);
        }
    }
    rejected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resolved_hierarchy_and_type_test_equal_the_reference(seed in 0u64..u64::MAX) { case(seed); }
}

#[test]
fn generated_hierarchies_exercise_rejections_and_matches() {
    // The generator is only worth its properties if it produces both
    // rejected definitions and values that do inhabit some type.
    let rejected: usize = (0..48).map(case).sum();
    assert!(rejected > 10, "only {rejected} rejected definitions");
    let reg = fixed_hierarchy();
    let (store, oids) = objects(&reg);
    let mut g = Rng(7);
    let typed = (0..200)
        .filter(|_| {
            let s = SchemaType::named(*g.pick(&["Person", "Employee", "Student", "TA"]));
            exact_type_of(&value(&mut g, &reg, &oids, &s, 4), &reg, &store).is_some()
        })
        .count();
    assert!(typed > 50, "only {typed} of 200 values have an exact type");
}
