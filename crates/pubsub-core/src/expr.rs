//! A recursive Boolean expression type used to *construct* subscriptions.
//!
//! [`Expr`] is the ergonomic, recursive form (easy to build in workload
//! generators and tests); [`SubscriptionTree`](crate::SubscriptionTree) is the
//! flat arena form used for matching and pruning. Conversions in both
//! directions are provided.

use crate::{EventMessage, Operator, Predicate, Value};
use std::fmt;

/// A Boolean filter expression over predicates.
///
/// Internal nodes are conjunctions, disjunctions, and negations; leaves are
/// [`Predicate`]s. `Expr` is a convenience representation: subscriptions are
/// registered and matched as [`SubscriptionTree`](crate::SubscriptionTree)s.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A single predicate leaf.
    Pred(Predicate),
    /// Conjunction of all children.
    And(Vec<Expr>),
    /// Disjunction of all children.
    Or(Vec<Expr>),
    /// Negation of the child expression.
    Not(Box<Expr>),
}

impl Expr {
    /// Leaf constructor from a ready-made predicate.
    pub fn pred(predicate: Predicate) -> Self {
        Expr::Pred(predicate)
    }

    /// Leaf constructor: `attribute = value`.
    pub fn eq(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Eq, value))
    }

    /// Leaf constructor: `attribute != value`.
    pub fn ne(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Ne, value))
    }

    /// Leaf constructor: `attribute < value`.
    pub fn lt(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Lt, value))
    }

    /// Leaf constructor: `attribute <= value`.
    pub fn le(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Le, value))
    }

    /// Leaf constructor: `attribute > value`.
    pub fn gt(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Gt, value))
    }

    /// Leaf constructor: `attribute >= value`.
    pub fn ge(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Ge, value))
    }

    /// Leaf constructor: the string attribute starts with `value`.
    pub fn prefix(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Prefix, value))
    }

    /// Leaf constructor: the string attribute contains `value`.
    pub fn contains(attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        Expr::Pred(Predicate::new(attribute, Operator::Contains, value))
    }

    /// Conjunction constructor. A single-element vector yields that element.
    pub fn and(children: Vec<Expr>) -> Self {
        debug_assert!(!children.is_empty(), "AND over zero children");
        if children.len() == 1 {
            children.into_iter().next().expect("len checked")
        } else {
            Expr::And(children)
        }
    }

    /// Disjunction constructor. A single-element vector yields that element.
    pub fn or(children: Vec<Expr>) -> Self {
        debug_assert!(!children.is_empty(), "OR over zero children");
        if children.len() == 1 {
            children.into_iter().next().expect("len checked")
        } else {
            Expr::Or(children)
        }
    }

    /// Negation constructor.
    // An associated constructor taking the child by value, not a `!x`
    // operator on an existing expression — the `Not` trait does not apply.
    #[allow(clippy::should_implement_trait)]
    pub fn not(child: Expr) -> Self {
        Expr::Not(Box::new(child))
    }

    /// Evaluates the expression against an event message.
    pub fn evaluate(&self, event: &EventMessage) -> bool {
        match self {
            Expr::Pred(p) => p.evaluate(event),
            Expr::And(children) => children.iter().all(|c| c.evaluate(event)),
            Expr::Or(children) => children.iter().any(|c| c.evaluate(event)),
            Expr::Not(child) => !child.evaluate(event),
        }
    }

    /// Number of predicate leaves in the expression.
    pub fn predicate_count(&self) -> usize {
        match self {
            Expr::Pred(_) => 1,
            Expr::And(children) | Expr::Or(children) => {
                children.iter().map(Expr::predicate_count).sum()
            }
            Expr::Not(child) => child.predicate_count(),
        }
    }

    /// Total number of nodes (internal nodes and leaves).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Pred(_) => 1,
            Expr::And(children) | Expr::Or(children) => {
                1 + children.iter().map(Expr::node_count).sum::<usize>()
            }
            Expr::Not(child) => 1 + child.node_count(),
        }
    }

    /// Depth of the expression tree (a single predicate has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Pred(_) => 1,
            Expr::And(children) | Expr::Or(children) => {
                1 + children.iter().map(Expr::depth).max().unwrap_or(0)
            }
            Expr::Not(child) => 1 + child.depth(),
        }
    }

    /// Iterates over all predicate leaves (depth-first, left to right).
    pub fn predicates(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        self.collect_predicates(&mut out);
        out
    }

    fn collect_predicates<'a>(&'a self, out: &mut Vec<&'a Predicate>) {
        match self {
            Expr::Pred(p) => out.push(p),
            Expr::And(children) | Expr::Or(children) => {
                for c in children {
                    c.collect_predicates(out);
                }
            }
            Expr::Not(child) => child.collect_predicates(out),
        }
    }

    /// Returns `true` if the expression is a pure conjunction of predicates
    /// (i.e. a single predicate, or an AND whose children are all predicates).
    /// Only such subscriptions are eligible for the covering and merging
    /// baseline optimizations.
    pub fn is_conjunctive(&self) -> bool {
        match self {
            Expr::Pred(_) => true,
            Expr::And(children) => children.iter().all(|c| matches!(c, Expr::Pred(_))),
            _ => false,
        }
    }

    /// Structural validity check: every AND/OR has at least one child.
    /// Constructors uphold this; deserialized expressions may not.
    pub fn is_valid(&self) -> bool {
        match self {
            Expr::Pred(_) => true,
            Expr::And(children) | Expr::Or(children) => {
                !children.is_empty() && children.iter().all(Expr::is_valid)
            }
            Expr::Not(child) => child.is_valid(),
        }
    }
}

impl From<Predicate> for Expr {
    fn from(p: Predicate) -> Self {
        Expr::Pred(p)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Pred(p) => write!(f, "{p}"),
            Expr::And(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Expr::Or(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Expr::Not(child) => write!(f, "NOT {child}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> EventMessage {
        EventMessage::builder()
            .attr("category", "books")
            .attr("price", 15i64)
            .attr("bids", 2i64)
            .attr("title", "dune messiah")
            .build()
    }

    fn sample_expr() -> Expr {
        // (category = books AND price <= 20) OR (bids >= 10)
        Expr::or(vec![
            Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
            Expr::ge("bids", 10i64),
        ])
    }

    #[test]
    fn evaluation_of_nested_expression() {
        let e = sample_expr();
        assert!(e.evaluate(&sample_event()));

        let non_matching = EventMessage::builder()
            .attr("category", "music")
            .attr("price", 15i64)
            .attr("bids", 2i64)
            .build();
        assert!(!e.evaluate(&non_matching));

        let matching_via_bids = EventMessage::builder()
            .attr("category", "music")
            .attr("bids", 12i64)
            .build();
        assert!(e.evaluate(&matching_via_bids));
    }

    #[test]
    fn negation_evaluation() {
        let e = Expr::not(Expr::eq("category", "books"));
        assert!(!e.evaluate(&sample_event()));
        let other = EventMessage::builder().attr("category", "music").build();
        assert!(e.evaluate(&other));
        // An event without the attribute: the inner predicate is false, so NOT is true.
        let empty = EventMessage::builder().build();
        assert!(e.evaluate(&empty));
    }

    #[test]
    fn counting_helpers() {
        let e = sample_expr();
        assert_eq!(e.predicate_count(), 3);
        assert_eq!(e.node_count(), 5); // or, and, 3 predicates
        assert_eq!(e.depth(), 3);
        assert_eq!(Expr::eq("a", 1i64).depth(), 1);
        assert_eq!(e.predicates().len(), 3);
    }

    #[test]
    fn single_child_constructors_collapse() {
        let single = Expr::and(vec![Expr::eq("a", 1i64)]);
        assert!(matches!(single, Expr::Pred(_)));
        let single = Expr::or(vec![Expr::eq("a", 1i64)]);
        assert!(matches!(single, Expr::Pred(_)));
    }

    #[test]
    fn conjunctive_detection() {
        assert!(Expr::eq("a", 1i64).is_conjunctive());
        assert!(Expr::and(vec![Expr::eq("a", 1i64), Expr::lt("b", 2i64)]).is_conjunctive());
        assert!(!sample_expr().is_conjunctive());
        assert!(!Expr::not(Expr::eq("a", 1i64)).is_conjunctive());
        // AND containing a nested OR is not conjunctive.
        let nested = Expr::And(vec![
            Expr::eq("a", 1i64),
            Expr::Or(vec![Expr::eq("b", 1i64), Expr::eq("c", 1i64)]),
        ]);
        assert!(!nested.is_conjunctive());
    }

    #[test]
    fn validity_check() {
        assert!(sample_expr().is_valid());
        let invalid = Expr::And(vec![]);
        assert!(!invalid.is_valid());
        let nested_invalid = Expr::Or(vec![Expr::eq("a", 1i64), Expr::And(vec![])]);
        assert!(!nested_invalid.is_valid());
    }

    #[test]
    fn display_roundtrips_structure() {
        let s = sample_expr().to_string();
        assert!(s.contains("AND"));
        assert!(s.contains("OR"));
        assert!(s.contains("category = \"books\""));
    }
}
