//! Scalar functions and aggregates.
//!
//! EXCESS supports "user-defined functions (written both in E and in
//! EXCESS) and aggregate functions (written in E) … in a clean and
//! consistent way" (Section 2.2).  The E-language ADT functions are
//! proprietary to EXODUS; per the DESIGN.md substitution table we provide
//! the concrete functions the paper's examples use (arithmetic, `min`,
//! `age`) plus the obvious companions (`max`, `count`, `sum`, `avg`).
//!
//! Null propagation: arithmetic with a `dne` operand is `dne`; with `unk`,
//! `unk` (dne dominates).  Aggregates over an empty multiset: `min`/`max`/
//! `avg` return `dne` ("there is no such element"); `count` and `sum`
//! return 0.

use crate::error::{EvalError, EvalResult};
use excess_types::{MultiSet, Scalar, Value};

/// Binary numeric operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

fn null_out(a: &Value, b: &Value) -> Option<Value> {
    if a.is_dne() || b.is_dne() {
        Some(Value::dne())
    } else if a.is_unk() || b.is_unk() {
        Some(Value::unk())
    } else {
        None
    }
}

/// Apply a binary numeric operation with int/float coercion.  Integer
/// arithmetic that overflows widens to float; integer division truncates
/// (QUEL-style); division by zero is an error.
pub fn numeric(op: NumOp, a: &Value, b: &Value) -> EvalResult<Value> {
    if let Some(n) = null_out(a, b) {
        return Ok(n);
    }
    let both_int =
        matches!(a, Value::Scalar(Scalar::Int4(_))) && matches!(b, Value::Scalar(Scalar::Int4(_)));
    let (x, y) = match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(EvalError::SortMismatch {
                op: "numeric",
                expected: "numeric scalar",
                found: format!("{} and {}", a.kind_name(), b.kind_name()),
            })
        }
    };
    if both_int {
        let (ia, ib) = (a.as_int().unwrap(), b.as_int().unwrap());
        let r: Option<i32> = match op {
            NumOp::Add => ia.checked_add(ib),
            NumOp::Sub => ia.checked_sub(ib),
            NumOp::Mul => ia.checked_mul(ib),
            NumOp::Div => {
                if ib == 0 {
                    return Err(EvalError::DivideByZero);
                }
                ia.checked_div(ib)
            }
        };
        if let Some(r) = r {
            return Ok(Value::int(r));
        }
        // overflow: fall through to float arithmetic
    }
    let r = match op {
        NumOp::Add => x + y,
        NumOp::Sub => x - y,
        NumOp::Mul => x * y,
        NumOp::Div => {
            if y == 0.0 {
                return Err(EvalError::DivideByZero);
            }
            x / y
        }
    };
    Ok(Value::float(r))
}

/// Numeric negation.
pub fn negate(a: &Value) -> EvalResult<Value> {
    if a.is_null() {
        return Ok(a.clone());
    }
    if let Some(i) = a.as_int() {
        return Ok(i
            .checked_neg()
            .map(Value::int)
            .unwrap_or_else(|| Value::float(-f64::from(i))));
    }
    match a.as_float() {
        Some(x) => Ok(Value::float(-x)),
        None => Err(EvalError::SortMismatch {
            op: "neg",
            expected: "numeric scalar",
            found: a.kind_name().to_string(),
        }),
    }
}

/// The error an aggregate over a non-collection input raises.
fn not_a_collection(v: &Value) -> EvalError {
    EvalError::SortMismatch {
        op: "aggregate",
        expected: "multiset or array",
        found: v.kind_name().to_string(),
    }
}

/// Occurrences of a collection input (multiset or array) for aggregation,
/// iterated in place.
fn occurrences(v: &Value) -> EvalResult<impl Iterator<Item = &Value>> {
    let (set, array) = match v {
        Value::Set(s) => (Some(s), None),
        Value::Array(a) => (None, Some(a)),
        _ => return Err(not_a_collection(v)),
    };
    Ok(set
        .into_iter()
        .flat_map(MultiSet::iter_occurrences)
        .chain(array.into_iter().flat_map(|a| a.iter())))
}

/// The number of [`occurrences`], without visiting them.
fn occurrence_count(v: &Value) -> EvalResult<u64> {
    match v {
        Value::Set(s) => Ok(s.len()),
        Value::Array(a) => Ok(a.len() as u64),
        _ => Err(not_a_collection(v)),
    }
}

/// `min` over all occurrences by the total value order; `dne` on empty.
pub fn min(v: &Value) -> EvalResult<Value> {
    if v.is_null() {
        return Ok(v.clone());
    }
    Ok(occurrences(v)?
        .filter(|x| !x.is_null())
        .min()
        .cloned()
        .unwrap_or_else(Value::dne))
}

/// `max` over all occurrences; `dne` on empty.
pub fn max(v: &Value) -> EvalResult<Value> {
    if v.is_null() {
        return Ok(v.clone());
    }
    Ok(occurrences(v)?
        .filter(|x| !x.is_null())
        .max()
        .cloned()
        .unwrap_or_else(Value::dne))
}

/// `count` of occurrences (duplicates counted; nulls counted — they are
/// occurrences, and `dne` can never occur in a multiset anyway).
pub fn count(v: &Value) -> EvalResult<Value> {
    if v.is_null() {
        return Ok(v.clone());
    }
    Ok(Value::int(occurrence_count(v)? as i32))
}

/// Numeric `sum`; 0 on empty; `unk` if any occurrence is `unk`.
pub fn sum(v: &Value) -> EvalResult<Value> {
    if v.is_null() {
        return Ok(v.clone());
    }
    let mut acc = Value::int(0);
    for x in occurrences(v)? {
        if x.is_unk() {
            return Ok(Value::unk());
        }
        acc = numeric(NumOp::Add, &acc, x)?;
    }
    Ok(acc)
}

/// Numeric `avg`; `dne` on empty.
pub fn avg(v: &Value) -> EvalResult<Value> {
    if v.is_null() {
        return Ok(v.clone());
    }
    let n = occurrence_count(v)?;
    if n == 0 {
        return Ok(Value::dne());
    }
    let n = n as f64;
    let s = sum(v)?;
    if s.is_unk() {
        return Ok(Value::unk());
    }
    Ok(Value::float(
        s.as_float()
            .ok_or(EvalError::BadAggregate("non-numeric sum".into()))?
            / n,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(xs: &[i32]) -> Value {
        Value::set(xs.iter().map(|&i| Value::int(i)))
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        assert_eq!(
            numeric(NumOp::Add, &Value::int(2), &Value::int(3)).unwrap(),
            Value::int(5)
        );
        assert_eq!(
            numeric(NumOp::Div, &Value::int(7), &Value::int(2)).unwrap(),
            Value::int(3)
        );
    }

    #[test]
    fn mixed_arithmetic_widens() {
        assert_eq!(
            numeric(NumOp::Mul, &Value::int(2), &Value::float(1.5)).unwrap(),
            Value::float(3.0)
        );
    }

    #[test]
    fn overflow_widens_to_float() {
        let r = numeric(NumOp::Add, &Value::int(i32::MAX), &Value::int(1)).unwrap();
        assert_eq!(r, Value::float(f64::from(i32::MAX) + 1.0));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            numeric(NumOp::Div, &Value::int(1), &Value::int(0)),
            Err(EvalError::DivideByZero)
        );
    }

    #[test]
    fn null_propagation_dne_dominates() {
        assert_eq!(
            numeric(NumOp::Add, &Value::dne(), &Value::unk()).unwrap(),
            Value::dne()
        );
        assert_eq!(
            numeric(NumOp::Add, &Value::unk(), &Value::int(1)).unwrap(),
            Value::unk()
        );
    }

    #[test]
    fn aggregates_over_multisets() {
        let s = set(&[3, 1, 4, 1]);
        assert_eq!(min(&s).unwrap(), Value::int(1));
        assert_eq!(max(&s).unwrap(), Value::int(4));
        assert_eq!(count(&s).unwrap(), Value::int(4));
        assert_eq!(sum(&s).unwrap(), Value::int(9));
        assert_eq!(avg(&s).unwrap(), Value::float(2.25));
    }

    #[test]
    fn aggregates_over_arrays() {
        let a = Value::array([Value::int(5), Value::int(5)]);
        assert_eq!(count(&a).unwrap(), Value::int(2));
        assert_eq!(sum(&a).unwrap(), Value::int(10));
    }

    #[test]
    fn empty_aggregate_semantics() {
        let e = set(&[]);
        assert_eq!(min(&e).unwrap(), Value::dne());
        assert_eq!(max(&e).unwrap(), Value::dne());
        assert_eq!(avg(&e).unwrap(), Value::dne());
        assert_eq!(count(&e).unwrap(), Value::int(0));
        assert_eq!(sum(&e).unwrap(), Value::int(0));
    }

    #[test]
    fn unk_poisons_sum_and_avg() {
        let s = Value::set([Value::int(1), Value::unk()]);
        assert_eq!(sum(&s).unwrap(), Value::unk());
        assert_eq!(avg(&s).unwrap(), Value::unk());
        // …but min/max skip nulls (they select an existing element).
        assert_eq!(min(&s).unwrap(), Value::int(1));
    }

    #[test]
    fn aggregate_of_scalar_is_sort_error() {
        let expected = EvalError::SortMismatch {
            op: "aggregate",
            expected: "multiset or array",
            found: "scalar".into(),
        };
        for agg in [min, max, count, sum, avg] {
            assert_eq!(agg(&Value::int(1)), Err(expected.clone()));
        }
    }
}
