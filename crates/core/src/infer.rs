//! The typing pieces the verifier's walk is built from: where the schemas
//! of named top-level objects come from ([`SchemaCatalog`]), the schema of
//! a literal ([`value_schema`]), and the field and numeric joins that
//! `TUP_CAT`, `rel_×` and arithmetic share.  The walk that types a plan
//! with them is [`crate::verify::verify`].

use excess_types::{SchemaType, TypeRegistry, Value};

/// Schema source for named top-level objects.
pub trait SchemaCatalog {
    /// The declared schema of the named object, if known.
    fn object_schema(&self, name: &str) -> Option<SchemaType>;
}

impl SchemaCatalog for std::collections::HashMap<String, SchemaType> {
    fn object_schema(&self, name: &str) -> Option<SchemaType> {
        self.get(name).cloned()
    }
}

/// Synthesise the schema of a literal value.  Empty collections get an
/// empty-tuple element type (no information is available; the choice is
/// harmless because no element exists to violate it).
pub fn value_schema(v: &Value, reg: &TypeRegistry) -> SchemaType {
    match v {
        Value::Scalar(s) => SchemaType::Val(s.scalar_type()),
        Value::Null(_) => SchemaType::Tup(vec![]), // no better information
        Value::Tuple(t) => SchemaType::Tup(
            t.iter()
                .map(|(n, fv)| (n.to_string(), value_schema(fv, reg)))
                .collect(),
        ),
        Value::Set(s) => {
            let elem = s
                .iter_counted()
                .next()
                .map(|(e, _)| value_schema(e, reg))
                .unwrap_or(SchemaType::Tup(vec![]));
            SchemaType::set(elem)
        }
        Value::Array(a) => {
            let elem = a
                .first()
                .map(|e| value_schema(e, reg))
                .unwrap_or(SchemaType::Tup(vec![]));
            SchemaType::array(elem)
        }
        Value::Ref(oid) => SchemaType::reference(reg.name_of(oid.minted)),
    }
}

/// Concatenate tuple field lists with the same clash-priming rule as
/// [`excess_types::Tuple::cat`].
pub(crate) fn cat_fields(
    mut a: Vec<(String, SchemaType)>,
    b: Vec<(String, SchemaType)>,
) -> Vec<(String, SchemaType)> {
    for (n, t) in b {
        let mut name = n;
        while a.iter().any(|(m, _)| *m == name) {
            name.push('\'');
        }
        a.push((name, t));
    }
    a
}

pub(crate) fn numeric_join(a: &SchemaType, b: &SchemaType) -> SchemaType {
    if *a == SchemaType::int4() && *b == SchemaType::int4() {
        SchemaType::int4()
    } else {
        SchemaType::float4()
    }
}
