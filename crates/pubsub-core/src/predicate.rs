//! Predicates: attribute–operator–value triples, the variables of Boolean
//! subscriptions.

use crate::{attr, AttrId, EventMessage, Operator, Value};
use std::fmt;

/// A predicate specifies a single condition on event messages as an
/// attribute–operator–value triple, e.g. `price <= 20`.
///
/// Predicates are the leaf variables of a [`SubscriptionTree`](crate::SubscriptionTree).
/// A predicate is fulfilled by an event message if the message carries the
/// attribute and the comparison of the carried value against the predicate's
/// constant succeeds. Events missing the attribute never fulfil the predicate.
/// The attribute name is resolved to a dense [`AttrId`] through the global
/// interner at construction time, so evaluating the predicate against an
/// event — and registering it in the attribute indexes — never hashes or
/// compares attribute strings.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    attribute: AttrId,
    operator: Operator,
    constant: Value,
}

impl Predicate {
    /// Creates a new predicate `attribute operator constant`, interning the
    /// attribute name.
    pub fn new(attribute: impl AsRef<str>, operator: Operator, constant: impl Into<Value>) -> Self {
        Self::with_attr_id(attr::intern(attribute.as_ref()), operator, constant)
    }

    /// Creates a new predicate from a pre-resolved attribute id.
    pub fn with_attr_id(attribute: AttrId, operator: Operator, constant: impl Into<Value>) -> Self {
        Self {
            attribute,
            operator,
            constant: constant.into(),
        }
    }

    /// The name of the attribute this predicate constrains.
    pub fn attribute(&self) -> &'static str {
        attr::name(self.attribute)
    }

    /// The interned id of the attribute this predicate constrains.
    #[inline]
    pub fn attr_id(&self) -> AttrId {
        self.attribute
    }

    /// The comparison operator.
    pub fn operator(&self) -> Operator {
        self.operator
    }

    /// The constant the event value is compared against.
    pub fn constant(&self) -> &Value {
        &self.constant
    }

    /// Evaluates this predicate against an event message.
    pub fn evaluate(&self, event: &EventMessage) -> bool {
        match event.get_id(self.attribute) {
            Some(value) => self.operator.evaluate(value, &self.constant),
            None => false,
        }
    }

    /// Evaluates this predicate against a bare value (used by attribute
    /// indexes that have already resolved the attribute lookup).
    pub fn evaluate_value(&self, value: &Value) -> bool {
        self.operator.evaluate(value, &self.constant)
    }

    /// Approximate number of bytes required to store this predicate in a
    /// routing-table entry: attribute name, operator tag, and constant.
    pub fn size_bytes(&self) -> usize {
        const OPERATOR_TAG: usize = 1;
        const STRUCT_OVERHEAD: usize = 8;
        self.attribute().len() + OPERATOR_TAG + self.constant.size_bytes() + STRUCT_OVERHEAD
    }

    /// Returns `true` if `self` is at least as general as `other`, i.e. every
    /// value fulfilling `other` also fulfils `self`. Only predicates on the
    /// same attribute can cover each other; the check is conservative (it may
    /// return `false` for some true coverings) but never returns a false
    /// positive. Used by the covering baseline optimization.
    pub fn covers(&self, other: &Predicate) -> bool {
        if self.attribute != other.attribute {
            return false;
        }
        if self == other {
            return true;
        }
        // Chaining two comparisons through an inexact int is unsound
        // (`x = 2^53` does not imply `x < 2^53 + 1` for `Float(2^53)`).
        if !self.constant.is_f64_exact() || !other.constant.is_f64_exact() {
            return false;
        }
        use Operator::*;
        match (self.operator, other.operator) {
            // x <= a covers x <= b when b <= a; same for <
            (Le, Le) | (Lt, Lt) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            // x <= a covers x < b when b <= a
            (Le, Lt) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            // x < a covers x < b when b <= a ; covers x <= b when b < a
            (Lt, Le) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Less)
            ),
            (Ge, Ge) | (Gt, Gt) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ),
            (Ge, Gt) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ),
            (Gt, Ge) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Greater)
            ),
            // x <= a covers x = b when b <= a, etc.
            (Le, Eq) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            (Lt, Eq) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Less)
            ),
            (Ge, Eq) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ),
            (Gt, Eq) => matches!(
                other.constant.partial_cmp_value(&self.constant),
                Some(std::cmp::Ordering::Greater)
            ),
            // prefix "ha" covers prefix "harry"; contains "a" covers contains "harry" if "harry".contains("a")
            (Prefix, Prefix) => match (other.constant.as_str(), self.constant.as_str()) {
                (Some(longer), Some(shorter)) => longer.starts_with(shorter),
                _ => false,
            },
            (Suffix, Suffix) => match (other.constant.as_str(), self.constant.as_str()) {
                (Some(longer), Some(shorter)) => longer.ends_with(shorter),
                _ => false,
            },
            (Contains, Contains) => match (other.constant.as_str(), self.constant.as_str()) {
                (Some(longer), Some(shorter)) => longer.contains(shorter),
                _ => false,
            },
            (Contains, Eq) | (Contains, Prefix) | (Contains, Suffix) => {
                match (other.constant.as_str(), self.constant.as_str()) {
                    (Some(longer), Some(shorter)) => longer.contains(shorter),
                    _ => false,
                }
            }
            (Prefix, Eq) => match (other.constant.as_str(), self.constant.as_str()) {
                (Some(longer), Some(shorter)) => longer.starts_with(shorter),
                _ => false,
            },
            (Suffix, Eq) => match (other.constant.as_str(), self.constant.as_str()) {
                (Some(longer), Some(shorter)) => longer.ends_with(shorter),
                _ => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.attribute(),
            self.operator,
            self.constant
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> EventMessage {
        EventMessage::builder()
            .attr("title", "harry potter")
            .attr("price", 15i64)
            .attr("rating", 4.5)
            .build()
    }

    #[test]
    fn evaluation_against_events() {
        assert!(Predicate::new("price", Operator::Le, 20i64).evaluate(&event()));
        assert!(!Predicate::new("price", Operator::Gt, 20i64).evaluate(&event()));
        assert!(Predicate::new("title", Operator::Prefix, "harry").evaluate(&event()));
        assert!(Predicate::new("rating", Operator::Ge, 4.0).evaluate(&event()));
    }

    #[test]
    fn missing_attribute_never_matches() {
        assert!(!Predicate::new("author", Operator::Eq, "herbert").evaluate(&event()));
        assert!(!Predicate::new("author", Operator::Ne, "herbert").evaluate(&event()));
    }

    #[test]
    fn evaluate_value_bypasses_attribute_lookup() {
        let p = Predicate::new("price", Operator::Lt, 10i64);
        assert!(p.evaluate_value(&Value::Int(5)));
        assert!(!p.evaluate_value(&Value::Int(15)));
    }

    #[test]
    fn size_accounts_for_attribute_and_constant() {
        let small = Predicate::new("a", Operator::Eq, 1i64);
        let big = Predicate::new(
            "a_very_long_attribute_name",
            Operator::Eq,
            "a long string value",
        );
        assert!(big.size_bytes() > small.size_bytes());
    }

    #[test]
    fn covering_numeric_ranges() {
        let wide = Predicate::new("price", Operator::Le, 100i64);
        let narrow = Predicate::new("price", Operator::Le, 50i64);
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&Predicate::new("price", Operator::Eq, 70i64)));
        assert!(!wide.covers(&Predicate::new("price", Operator::Eq, 170i64)));

        let ge = Predicate::new("bids", Operator::Ge, 2i64);
        assert!(ge.covers(&Predicate::new("bids", Operator::Ge, 5i64)));
        assert!(ge.covers(&Predicate::new("bids", Operator::Gt, 2i64)));
        assert!(!ge.covers(&Predicate::new("bids", Operator::Ge, 1i64)));
    }

    #[test]
    fn covering_string_patterns() {
        let p = Predicate::new("title", Operator::Prefix, "har");
        assert!(p.covers(&Predicate::new("title", Operator::Prefix, "harry")));
        assert!(p.covers(&Predicate::new("title", Operator::Eq, "harry potter")));
        assert!(!p.covers(&Predicate::new("title", Operator::Prefix, "ha")));

        let c = Predicate::new("title", Operator::Contains, "pot");
        assert!(c.covers(&Predicate::new("title", Operator::Eq, "harry potter")));
        assert!(c.covers(&Predicate::new("title", Operator::Contains, "potter")));
    }

    #[test]
    fn covering_requires_same_attribute() {
        let a = Predicate::new("price", Operator::Le, 100i64);
        let b = Predicate::new("bids", Operator::Le, 50i64);
        assert!(!a.covers(&b));
    }

    #[test]
    fn covering_never_chains_through_an_inexact_int() {
        // `Float(2^53)` fulfils `x = 2^53` but not `x < 2^53 + 1`: the `f64`
        // images of both ints are 2^53.
        let big = 1i64 << 53;
        let event = EventMessage::builder().attr("x", big as f64).build();
        let narrow = Predicate::new("x", Operator::Eq, big);
        let wide = Predicate::new("x", Operator::Lt, big + 1);
        assert!(narrow.evaluate(&event) && !wide.evaluate(&event));
        assert!(!wide.covers(&narrow));
        // Inside ±2^53 the same shape still covers.
        let wide = Predicate::new("x", Operator::Lt, big - 1);
        assert!(wide.covers(&Predicate::new("x", Operator::Eq, big - 2)));
        assert!(wide.covers(&Predicate::new("x", Operator::Le, 3.5f64)));
        assert!(!Value::Int(-big).is_f64_exact() && Value::Int(1 - big).is_f64_exact());
    }

    #[test]
    fn covering_is_reflexive() {
        let p = Predicate::new("x", Operator::Contains, "abc");
        assert!(p.covers(&p));
        let q = Predicate::new("y", Operator::Ne, 3i64);
        assert!(q.covers(&q));
    }

    #[test]
    fn display_format() {
        let p = Predicate::new("price", Operator::Le, 20i64);
        assert_eq!(p.to_string(), "price <= 20");
    }
}
