//! Instances: elements of the complex domains of Section 3.1.
//!
//! A [`Value`] is an element of `dom(S)` for some schema `S`: a scalar, a
//! tuple with named fields, a multiset, a (variable-length) array, an OID
//! reference, or one of the two null constants `dne` ("does not exist") and
//! `unk` ("unknown") of Section 3.2.4.
//!
//! All values share a single total order (and hence a single value-based
//! equality, as required by the algebra's one-equality design): scalars by
//! [`crate::scalar::Scalar`]'s order, composites structurally, OIDs by
//! their (type, serial) pair.

use crate::multiset::MultiSet;
use crate::oid::Oid;
use crate::scalar::Scalar;
use crate::{date::Date, error::TypeError};
use std::fmt;
use std::sync::Arc;

/// The two null constants of Section 3.2.4 (after \[Gou88\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Null {
    /// "Does not exist": the value COMP returns for a false predicate;
    /// discarded whenever possible (e.g. on insertion into a multiset).
    Dne,
    /// "Unknown": the value COMP returns for an UNK predicate.
    Unk,
}

/// A tuple instance: an ordered sequence of named fields.
///
/// The field vector is shared: `clone` bumps a reference count, and the
/// derived `Eq`/`Ord`/`Hash`/`Debug` see straight through the `Arc`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple {
    fields: Arc<Vec<(String, Value)>>,
}

impl Tuple {
    /// The empty tuple `()` — the paper explicitly allows the empty tuple
    /// type, whose domain is `{ () }`.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from `(name, value)` pairs, preserving order.
    pub fn from_fields<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Tuple {
            fields: Arc::new(fields.into_iter().map(|(n, v)| (n.into(), v)).collect()),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Look up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// `TUP_EXTRACT`: a single field as a structure (operator, §3.2.2).
    pub fn extract(&self, name: &str) -> Result<&Value, TypeError> {
        self.get(name)
            .ok_or_else(|| TypeError::NoSuchField { field: name.into() })
    }

    /// `π`: keep only the named fields, in the order given (operator, §3.2.2
    /// — "performs its function on a single tuple").
    pub fn project(&self, names: &[String]) -> Result<Tuple, TypeError> {
        let mut out = Vec::with_capacity(names.len());
        for n in names {
            out.push((n.clone(), self.extract(n)?.clone()));
        }
        Ok(Tuple {
            fields: Arc::new(out),
        })
    }

    /// `TUP_CAT`: concatenate two tuples (operator, §3.2.2).  Later fields
    /// with a clashing name are suffixed `'` to keep names unique, matching
    /// the usual relational treatment of join outputs.
    pub fn cat(&self, other: &Tuple) -> Tuple {
        let mut out = Vec::with_capacity(self.fields.len() + other.fields.len());
        out.extend_from_slice(&self.fields);
        for (n, v) in other.fields.iter() {
            let mut name = n.clone();
            while out.iter().any(|(m, _)| m == &name) {
                name.push('\'');
            }
            out.push((name, v.clone()));
        }
        Tuple {
            fields: Arc::new(out),
        }
    }

    /// Iterate over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Field names in order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// Consume into the raw field vector (copied only when another value
    /// still shares it).
    pub fn into_fields(self) -> Vec<(String, Value)> {
        Arc::unwrap_or_clone(self.fields)
    }
}

/// An instance of some schema: the universal value type of the algebra.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A "val" node instance.
    Scalar(Scalar),
    /// A "tup" node instance.
    Tuple(Tuple),
    /// A "set" node instance (multiset).
    Set(MultiSet),
    /// An "arr" node instance (variable-length; fixed length is enforced by
    /// domain checking, not by the representation).  The payload is
    /// shared; mutate it through [`Arc::make_mut`].
    Array(Arc<Vec<Value>>),
    /// A "ref" node instance: an OID.
    Ref(Oid),
    /// A null constant (`dne`/`unk`).
    Null(Null),
}

impl Value {
    // ------ constructors ------

    /// `int4` scalar.
    pub fn int(i: i32) -> Value {
        Value::Scalar(Scalar::Int4(i))
    }
    /// `float4` scalar.
    pub fn float(x: f64) -> Value {
        Value::Scalar(Scalar::Float4(x))
    }
    /// `char[]` scalar.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Scalar(Scalar::Char(s.into()))
    }
    /// Boolean scalar.
    pub fn bool(b: bool) -> Value {
        Value::Scalar(Scalar::Bool(b))
    }
    /// `Date` scalar.
    pub fn date(d: Date) -> Value {
        Value::Scalar(Scalar::Date(d))
    }
    /// The `dne` null.
    pub fn dne() -> Value {
        Value::Null(Null::Dne)
    }
    /// The `unk` null.
    pub fn unk() -> Value {
        Value::Null(Null::Unk)
    }
    /// Tuple from `(name, value)` pairs.
    pub fn tuple<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Tuple(Tuple::from_fields(fields))
    }
    /// The 2-field tuple `(fst, snd)` produced by the Cartesian product.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::tuple([("fst", a), ("snd", b)])
    }
    /// Multiset from occurrences.
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }
    /// Array from elements in order.
    pub fn array<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Array(Arc::new(items.into_iter().collect()))
    }

    // ------ accessors ------

    /// `true` iff this is the `dne` null.
    pub fn is_dne(&self) -> bool {
        matches!(self, Value::Null(Null::Dne))
    }
    /// `true` iff this is the `unk` null.
    pub fn is_unk(&self) -> bool {
        matches!(self, Value::Null(Null::Unk))
    }
    /// `true` iff this is either null constant.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// View as a multiset.
    pub fn as_set(&self) -> Option<&MultiSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }
    /// View as a tuple.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }
    /// View as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    /// View as an OID.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(o) => Some(*o),
            _ => None,
        }
    }
    /// View as an `int4`.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Scalar(Scalar::Int4(i)) => Some(*i),
            _ => None,
        }
    }
    /// View as a float (also accepts `int4`, widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Scalar(Scalar::Float4(x)) => Some(*x),
            Value::Scalar(Scalar::Int4(i)) => Some(f64::from(*i)),
            _ => None,
        }
    }
    /// View as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Scalar(Scalar::Char(s)) => Some(s),
            _ => None,
        }
    }
    /// `true` iff both values are composites of the same kind whose
    /// interiors are the *same allocation* — the probe the isolation
    /// tests use to tell "equal" from "shared".  Scalars, references and
    /// nulls own no shared storage.
    pub fn shares_storage_with(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(&a.fields, &b.fields),
            (Value::Set(a), Value::Set(b)) => a.shares_storage_with(b),
            (Value::Array(a), Value::Array(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Short description of the value's shape, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Scalar(_) => "scalar",
            Value::Tuple(_) => "tuple",
            Value::Set(_) => "multiset",
            Value::Array(_) => "array",
            Value::Ref(_) => "ref",
            Value::Null(Null::Dne) => "dne",
            Value::Null(Null::Unk) => "unk",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Scalar(s) => write!(f, "{s}"),
            Value::Tuple(t) => {
                f.write_str("(")?;
                for (i, (n, v)) in t.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                f.write_str(")")
            }
            Value::Set(s) => write!(f, "{s}"),
            Value::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Ref(o) => write!(f, "{o}"),
            Value::Null(Null::Dne) => f.write_str("dne"),
            Value::Null(Null::Unk) => f.write_str("unk"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_extract_and_project() {
        let t = Tuple::from_fields([("a", Value::int(1)), ("b", Value::int(2))]);
        assert_eq!(t.extract("b").unwrap(), &Value::int(2));
        assert!(t.extract("z").is_err());
        let p = t.project(&["b".to_string()]).unwrap();
        assert_eq!(p.arity(), 1);
        assert_eq!(p.extract("b").unwrap(), &Value::int(2));
    }

    #[test]
    fn project_preserves_requested_order() {
        let t = Tuple::from_fields([("a", Value::int(1)), ("b", Value::int(2))]);
        let p = t.project(&["b".to_string(), "a".to_string()]).unwrap();
        let names: Vec<_> = p.field_names().collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn tup_cat_renames_clashes() {
        let t1 = Tuple::from_fields([("x", Value::int(1))]);
        let t2 = Tuple::from_fields([("x", Value::int(2))]);
        let c = t1.cat(&t2);
        assert_eq!(c.extract("x").unwrap(), &Value::int(1));
        assert_eq!(c.extract("x'").unwrap(), &Value::int(2));
    }

    #[test]
    fn empty_tuple_is_a_value() {
        // dom of the 0-ary tuple type is { () }.
        let t = Value::Tuple(Tuple::empty());
        assert_eq!(t, Value::tuple(Vec::<(String, Value)>::new()));
    }

    #[test]
    fn paper_figure2_instance_builds() {
        // { (26, [1, 2], x), (25, [], y) } — the instance below Figure 2.
        use crate::oid::{Oid, TypeId};
        let x = Oid {
            minted: TypeId(0),
            serial: 0,
        };
        let y = Oid {
            minted: TypeId(0),
            serial: 1,
        };
        let inst = Value::set([
            Value::tuple([
                ("f1", Value::int(26)),
                ("f2", Value::array([Value::int(1), Value::int(2)])),
                ("f3", Value::Ref(x)),
            ]),
            Value::tuple([
                ("f1", Value::int(25)),
                ("f2", Value::array([])),
                ("f3", Value::Ref(y)),
            ]),
        ]);
        assert_eq!(inst.as_set().unwrap().len(), 2);
    }

    #[test]
    fn value_order_is_total_over_mixed_shapes() {
        let mut vs = [
            Value::set([Value::int(1)]),
            Value::int(0),
            Value::array([]),
            Value::tuple([("a", Value::int(1))]),
            Value::dne(),
        ];
        vs.sort(); // must not panic; total order
        assert_eq!(vs.len(), 5);
    }

    /// `plan_hash` is an FNV of a physical plan's `{:?}`, and constants sit
    /// inside plans: these are the exact strings the owned (pre-`Arc`)
    /// representation printed.  A wrapper type with its own `Debug` would
    /// move every plan hash; this is where that shows first.
    #[test]
    fn debug_and_display_do_not_show_the_sharing() {
        let v = Value::tuple([
            ("k", Value::int(7)),
            (
                "s",
                Value::set([
                    Value::array([Value::int(1), Value::str("x")]),
                    Value::array([Value::int(1), Value::str("x")]),
                    Value::array([]),
                ]),
            ),
        ]);
        assert_eq!(
            format!("{v:?}"),
            r#"Tuple(Tuple { fields: [("k", Scalar(Int4(7))), ("s", Set(MultiSet { counts: {Array([]): 1, Array([Scalar(Int4(1)), Scalar(Char("x"))]): 2} }))] })"#
        );
        assert_eq!(v.to_string(), r#"(k: 7, s: { [], [1, "x"], [1, "x"] })"#);
    }

    #[test]
    fn a_clone_shares_storage_until_it_is_written() {
        let a = Value::set([Value::int(1), Value::int(2)]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert!(!a.shares_storage_with(&Value::set([Value::int(1), Value::int(2)])));
        assert!(!Value::int(1).shares_storage_with(&Value::int(1)));
        let Value::Set(s) = &mut b else {
            unreachable!()
        };
        s.insert(Value::int(3));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a, Value::set([Value::int(1), Value::int(2)]));
    }

    #[test]
    fn display_forms() {
        let v = Value::tuple([("a", Value::int(1)), ("b", Value::set([Value::int(2)]))]);
        assert_eq!(v.to_string(), "(a: 1, b: { 2 })");
        assert_eq!(
            Value::array([Value::int(1), Value::int(2)]).to_string(),
            "[1, 2]"
        );
    }
}
