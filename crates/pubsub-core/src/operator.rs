//! Comparison operators usable inside predicates.

use crate::Value;
use std::cmp::Ordering;
use std::fmt;

/// The comparison operator of a predicate (the middle element of an
/// attribute–operator–value triple).
///
/// The operator set covers the operators used by the online-auction workload
/// of the paper and by typical content-based publish/subscribe systems:
/// equality and ordering on all comparable types plus simple string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operator {
    /// `attribute = value`
    Eq,
    /// `attribute ≠ value`
    Ne,
    /// `attribute < value`
    Lt,
    /// `attribute ≤ value`
    Le,
    /// `attribute > value`
    Gt,
    /// `attribute ≥ value`
    Ge,
    /// String prefix match: the event value starts with the constant.
    Prefix,
    /// String suffix match: the event value ends with the constant.
    Suffix,
    /// Substring match: the event value contains the constant.
    Contains,
}

impl Operator {
    /// All operators, in a stable order (useful for exhaustive testing and
    /// for building per-operator index structures).
    pub const ALL: [Operator; 9] = [
        Operator::Eq,
        Operator::Ne,
        Operator::Lt,
        Operator::Le,
        Operator::Gt,
        Operator::Ge,
        Operator::Prefix,
        Operator::Suffix,
        Operator::Contains,
    ];

    /// The operator's stable wire tag: its index in [`Operator::ALL`].
    ///
    /// The binary wire codec stores operators as this single byte. The
    /// mapping is part of the wire format and must never be reordered.
    pub fn wire_tag(self) -> u8 {
        Operator::ALL
            .iter()
            .position(|op| *op == self)
            .expect("every operator is listed in ALL") as u8
    }

    /// Resolves a wire tag back to its operator, or `None` for tags no
    /// operator uses (a malformed or newer-version frame).
    pub fn from_wire_tag(tag: u8) -> Option<Operator> {
        Operator::ALL.get(tag as usize).copied()
    }

    /// Returns `true` for operators that only make sense on string values.
    pub fn is_string_operator(self) -> bool {
        matches!(
            self,
            Operator::Prefix | Operator::Suffix | Operator::Contains
        )
    }

    /// Returns `true` for operators that define an ordering constraint
    /// (`<`, `≤`, `>`, `≥`) and can therefore be served by an interval index.
    pub fn is_ordering_operator(self) -> bool {
        matches!(
            self,
            Operator::Lt | Operator::Le | Operator::Gt | Operator::Ge
        )
    }

    /// Evaluates `event_value OP constant`, returning `false` whenever the
    /// two values are not comparable under this operator (content-based
    /// systems treat type mismatches as "no match" rather than an error).
    pub fn evaluate(self, event_value: &Value, constant: &Value) -> bool {
        match self {
            Operator::Eq => matches!(
                event_value.partial_cmp_value(constant),
                Some(Ordering::Equal)
            ),
            Operator::Ne => match event_value.partial_cmp_value(constant) {
                Some(ord) => ord != Ordering::Equal,
                None => false,
            },
            Operator::Lt => matches!(
                event_value.partial_cmp_value(constant),
                Some(Ordering::Less)
            ),
            Operator::Le => matches!(
                event_value.partial_cmp_value(constant),
                Some(Ordering::Less | Ordering::Equal)
            ),
            Operator::Gt => matches!(
                event_value.partial_cmp_value(constant),
                Some(Ordering::Greater)
            ),
            Operator::Ge => matches!(
                event_value.partial_cmp_value(constant),
                Some(Ordering::Greater | Ordering::Equal)
            ),
            Operator::Prefix => match (event_value.as_str(), constant.as_str()) {
                (Some(ev), Some(c)) => ev.starts_with(c),
                _ => false,
            },
            Operator::Suffix => match (event_value.as_str(), constant.as_str()) {
                (Some(ev), Some(c)) => ev.ends_with(c),
                _ => false,
            },
            Operator::Contains => match (event_value.as_str(), constant.as_str()) {
                (Some(ev), Some(c)) => ev.contains(c),
                _ => false,
            },
        }
    }

    /// Returns the operator's textual symbol as used in display output.
    pub fn symbol(self) -> &'static str {
        match self {
            Operator::Eq => "=",
            Operator::Ne => "!=",
            Operator::Lt => "<",
            Operator::Le => "<=",
            Operator::Gt => ">",
            Operator::Ge => ">=",
            Operator::Prefix => "prefix",
            Operator::Suffix => "suffix",
            Operator::Contains => "contains",
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: impl Into<Value>) -> Value {
        x.into()
    }

    #[test]
    fn equality_operators() {
        assert!(Operator::Eq.evaluate(&v(3i64), &v(3i64)));
        assert!(!Operator::Eq.evaluate(&v(3i64), &v(4i64)));
        assert!(Operator::Ne.evaluate(&v(3i64), &v(4i64)));
        assert!(!Operator::Ne.evaluate(&v(3i64), &v(3i64)));
        assert!(Operator::Eq.evaluate(&v("books"), &v("books")));
        assert!(Operator::Eq.evaluate(&v(3i64), &v(3.0f64)));
    }

    #[test]
    fn ordering_operators() {
        assert!(Operator::Lt.evaluate(&v(3i64), &v(4i64)));
        assert!(!Operator::Lt.evaluate(&v(4i64), &v(4i64)));
        assert!(Operator::Le.evaluate(&v(4i64), &v(4i64)));
        assert!(Operator::Gt.evaluate(&v(5.5f64), &v(4i64)));
        assert!(Operator::Ge.evaluate(&v(4i64), &v(4.0f64)));
        assert!(!Operator::Ge.evaluate(&v(3.9f64), &v(4i64)));
    }

    #[test]
    fn string_operators() {
        assert!(Operator::Prefix.evaluate(&v("harry potter"), &v("harry")));
        assert!(!Operator::Prefix.evaluate(&v("harry potter"), &v("potter")));
        assert!(Operator::Suffix.evaluate(&v("harry potter"), &v("potter")));
        assert!(Operator::Contains.evaluate(&v("harry potter"), &v("ry po")));
        assert!(!Operator::Contains.evaluate(&v("harry potter"), &v("xyz")));
    }

    #[test]
    fn type_mismatches_never_match() {
        assert!(!Operator::Eq.evaluate(&v("3"), &v(3i64)));
        assert!(!Operator::Ne.evaluate(&v("3"), &v(3i64)));
        assert!(!Operator::Lt.evaluate(&v(true), &v(3i64)));
        assert!(!Operator::Prefix.evaluate(&v(3i64), &v("3")));
        assert!(!Operator::Contains.evaluate(&v("abc"), &v(1i64)));
    }

    #[test]
    fn classification_helpers() {
        assert!(Operator::Prefix.is_string_operator());
        assert!(!Operator::Eq.is_string_operator());
        assert!(Operator::Lt.is_ordering_operator());
        assert!(Operator::Ge.is_ordering_operator());
        assert!(!Operator::Eq.is_ordering_operator());
        assert!(!Operator::Contains.is_ordering_operator());
    }

    #[test]
    fn wire_tags_roundtrip_and_are_dense() {
        for (i, op) in Operator::ALL.iter().enumerate() {
            assert_eq!(op.wire_tag() as usize, i);
            assert_eq!(Operator::from_wire_tag(op.wire_tag()), Some(*op));
        }
        assert_eq!(Operator::from_wire_tag(Operator::ALL.len() as u8), None);
        assert_eq!(Operator::from_wire_tag(u8::MAX), None);
    }

    #[test]
    fn all_contains_every_operator_once() {
        let mut set = std::collections::HashSet::new();
        for op in Operator::ALL {
            assert!(set.insert(op), "duplicate operator in ALL");
        }
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn display_symbols() {
        assert_eq!(Operator::Eq.to_string(), "=");
        assert_eq!(Operator::Ge.to_string(), ">=");
        assert_eq!(Operator::Contains.to_string(), "contains");
    }
}
