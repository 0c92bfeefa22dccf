//! EXTRA DDL support: surface type expressions → schema types, and
//! initial values for `create`d objects.

use crate::ast::TypeExpr;
use crate::error::{LangError, LangResult};
use excess_types::{SchemaType, TypeRegistry, Value};

/// Lower a surface type expression to a [`SchemaType`].
pub fn lower_type(t: &TypeExpr) -> SchemaType {
    match t {
        TypeExpr::Int4 => SchemaType::int4(),
        TypeExpr::Float4 => SchemaType::float4(),
        TypeExpr::Char => SchemaType::chars(),
        TypeExpr::Bool => SchemaType::boolean(),
        TypeExpr::Date => SchemaType::date(),
        TypeExpr::Named(n) => SchemaType::named(n.clone()),
        TypeExpr::Ref(n) => SchemaType::reference(n.clone()),
        TypeExpr::Set(e) => SchemaType::set(lower_type(e)),
        TypeExpr::Array { elem, len } => SchemaType::Arr {
            elem: Box::new(lower_type(elem)),
            len: *len,
        },
        TypeExpr::Tuple(fs) => {
            SchemaType::tuple(fs.iter().map(|(n, t)| (n.clone(), lower_type(t))))
        }
    }
}

/// The initial value of a freshly `create`d object of schema `ty`:
/// empty multiset/array, zero-ish scalars, `dne` for refs, and — for
/// fixed-length arrays — `n` `dne` slots (nulls inhabit every domain, so
/// `create TopTen: array [1..10] of ref Employee` starts as ten empty
/// slots).
pub fn initial_value(ty: &SchemaType, reg: &TypeRegistry) -> LangResult<Value> {
    Ok(match ty {
        SchemaType::Val(st) => match st {
            excess_types::ScalarType::Int4 => Value::int(0),
            excess_types::ScalarType::Float4 => Value::float(0.0),
            excess_types::ScalarType::Char => Value::str(""),
            excess_types::ScalarType::Bool => Value::bool(false),
            excess_types::ScalarType::Date => Value::dne(),
        },
        SchemaType::Tup(fs) => Value::tuple(
            fs.iter()
                .map(|(n, t)| initial_value(t, reg).map(|v| (n.clone(), v)))
                .collect::<LangResult<Vec<_>>>()?,
        ),
        SchemaType::Set(_) => Value::set([]),
        SchemaType::Arr { len: None, .. } => Value::array([]),
        SchemaType::Arr { len: Some(n), .. } => Value::array(std::iter::repeat_n(Value::dne(), *n)),
        SchemaType::Ref(_) => Value::dne(),
        SchemaType::Named(n) => {
            let id = reg.lookup(n)?;
            return initial_value(reg.full_body(id), reg);
        }
    })
}

/// Render a [`SchemaType`] back to surface syntax (used by the
/// decompiler's `define type` emissions and by `describe`).
pub fn type_to_surface(t: &SchemaType) -> String {
    match t {
        SchemaType::Val(s) => match s {
            excess_types::ScalarType::Int4 => "int4".into(),
            excess_types::ScalarType::Float4 => "float4".into(),
            excess_types::ScalarType::Char => "char[]".into(),
            excess_types::ScalarType::Bool => "bool".into(),
            excess_types::ScalarType::Date => "Date".into(),
        },
        SchemaType::Named(n) => n.clone(),
        SchemaType::Ref(n) => format!("ref {n}"),
        SchemaType::Set(e) => format!("{{ {} }}", type_to_surface(e)),
        SchemaType::Arr { elem, len: None } => format!("array of {}", type_to_surface(elem)),
        SchemaType::Arr { elem, len: Some(n) } => {
            format!("array [1..{n}] of {}", type_to_surface(elem))
        }
        SchemaType::Tup(fs) => {
            let inner = fs
                .iter()
                .map(|(n, t)| format!("{n}: {}", type_to_surface(t)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("({inner})")
        }
    }
}

/// Round-trip check used by tests: parse a rendered type back.
pub fn parse_type(src: &str) -> LangResult<SchemaType> {
    // Reuse the statement parser through a `create` wrapper.
    let stmt = crate::parser::parse_statement(&format!("create __t : {src}"))?;
    match stmt {
        crate::ast::Stmt::Create { ty, .. } => Ok(lower_type(&ty)),
        _ => Err(LangError::Parse("expected type".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_figure1_types() {
        let t = parse_type("{ ref Employee }").unwrap();
        assert_eq!(t, SchemaType::set(SchemaType::reference("Employee")));
        let t2 = parse_type("array [1..10] of ref Employee").unwrap();
        assert_eq!(
            t2,
            SchemaType::fixed_array(SchemaType::reference("Employee"), 10)
        );
    }

    #[test]
    fn surface_round_trip() {
        for src in [
            "int4",
            "{ (a: int4, b: char[]) }",
            "array of float4",
            "array [1..3] of ref T",
            "(x: { int4 }, y: Date)",
        ] {
            let t = parse_type(src).unwrap();
            let rendered = type_to_surface(&t);
            assert_eq!(parse_type(&rendered).unwrap(), t, "round-trip of {src}");
        }
    }

    #[test]
    fn initial_values() {
        let reg = TypeRegistry::new();
        assert_eq!(
            initial_value(&SchemaType::set(SchemaType::int4()), &reg).unwrap(),
            Value::set([])
        );
        let arr = initial_value(&SchemaType::fixed_array(SchemaType::int4(), 3), &reg).unwrap();
        assert_eq!(arr.as_array().unwrap().len(), 3);
        assert!(arr.as_array().unwrap().iter().all(|v| v.is_dne()));
    }
}
