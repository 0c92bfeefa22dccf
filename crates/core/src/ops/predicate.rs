//! Three-valued predicate logic (Section 3.2.4).
//!
//! "If the predicate (P) evaluated with the input structure S is true, then
//! COMP_P(S) = S.  If the value of the predicate is UNK the COMP operator
//! returns unk.  If the value of the predicate is F then COMP returns dne."
//!
//! Comparisons touching the null constants follow the closed-world-opened
//! interpretation of \[Gott88\] the paper adopts: a comparison against a
//! value that *does not exist* (`dne`) is **false**, while a comparison
//! against an *unknown* value (`unk`) is **unknown**.  Connectives are
//! Kleene's strong three-valued ∧ and ¬.

use crate::expr::CmpOp;
use excess_types::Value;

/// A three-valued truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// True.
    T,
    /// False.
    F,
    /// Unknown.
    U,
}

impl Truth {
    /// Kleene strong conjunction.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (F, _) | (_, F) => F,
            (T, T) => T,
            _ => U,
        }
    }

    /// Kleene negation (three-valued ¬ — intentionally not `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::T => Truth::F,
            Truth::F => Truth::T,
            Truth::U => Truth::U,
        }
    }

    /// Kleene strong disjunction (used by derived rules, e.g. rule 4's
    /// disjunctive selection split).
    pub fn or(self, other: Truth) -> Truth {
        self.not().and(other.not()).not()
    }
}

/// Compare two evaluated operands.  `None` signals a sort error (only `in`
/// with a non-multiset right operand).
pub(crate) fn compare(l: &Value, op: CmpOp, r: &Value) -> Option<Truth> {
    if l.is_dne() || r.is_dne() {
        return Some(Truth::F);
    }
    if l.is_unk() || r.is_unk() {
        return Some(Truth::U);
    }
    let t = match op {
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::Ge => l >= r,
        CmpOp::In => {
            let set = r.as_set()?;
            set.contains(l)
        }
    };
    Some(if t { Truth::T } else { Truth::F })
}

/// The value COMP returns given the predicate's truth value and its input.
pub(crate) fn comp_result(t: Truth, input: Value) -> Value {
    match t {
        Truth::T => input,
        Truth::F => Value::dne(),
        Truth::U => Value::unk(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Truth::*;

    #[test]
    fn kleene_tables() {
        assert_eq!(T.and(T), T);
        assert_eq!(T.and(U), U);
        assert_eq!(F.and(U), F);
        assert_eq!(U.and(U), U);
        assert_eq!(U.not(), U);
        assert_eq!(T.or(U), T);
        assert_eq!(F.or(U), U);
        assert_eq!(F.or(F), F);
    }

    #[test]
    fn dne_comparisons_are_false() {
        assert_eq!(compare(&Value::dne(), CmpOp::Eq, &Value::int(1)), Some(F));
        assert_eq!(compare(&Value::int(1), CmpOp::Ne, &Value::dne()), Some(F));
    }

    #[test]
    fn unk_comparisons_are_unknown() {
        assert_eq!(compare(&Value::unk(), CmpOp::Eq, &Value::int(1)), Some(U));
        // dne wins over unk (the left dne short-circuits to F).
        assert_eq!(compare(&Value::dne(), CmpOp::Eq, &Value::unk()), Some(F));
    }

    #[test]
    fn membership_is_value_equality_against_every_occurrence() {
        let s = Value::set([Value::int(1), Value::int(2)]);
        assert_eq!(compare(&Value::int(2), CmpOp::In, &s), Some(T));
        assert_eq!(compare(&Value::int(3), CmpOp::In, &s), Some(F));
        assert_eq!(compare(&Value::int(3), CmpOp::In, &Value::int(1)), None);
    }

    #[test]
    fn comp_result_maps_truth_to_value() {
        assert_eq!(comp_result(T, Value::int(5)), Value::int(5));
        assert_eq!(comp_result(F, Value::int(5)), Value::dne());
        assert_eq!(comp_result(U, Value::int(5)), Value::unk());
    }

    #[test]
    fn paper_comp_example() {
        // A = (1 4 6 4 1), predicate fld2 = fld4 → COMP_E(A) = A.
        let a = Value::tuple([
            ("fld1", Value::int(1)),
            ("fld2", Value::int(4)),
            ("fld3", Value::int(6)),
            ("fld4", Value::int(4)),
            ("fld5", Value::int(1)),
        ]);
        let t = a.as_tuple().unwrap();
        let fld2 = t.extract("fld2").unwrap();
        let fld4 = t.extract("fld4").unwrap();
        assert_eq!(compare(fld2, CmpOp::Eq, fld4), Some(T));
        assert_eq!(comp_result(T, a.clone()), a);
    }
}
