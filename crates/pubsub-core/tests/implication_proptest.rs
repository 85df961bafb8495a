//! Property test of the lemma the flood-suppression index rests on
//! (`pubsub_core::analysis::ImplicationProfile`): whenever `implies(s, w)`
//! holds, the summary of `s` may imply the summary of `w`, `w` requires no
//! attribute `s` does not, and every attribute `w` bounds is bounded by `s`
//! with a probe key of `s` among the filing keys of `w`.
//!
//! Independent random pairs almost never imply each other, so half of the
//! pairs are built from shared parts in the shapes `implies` decomposes:
//! conjunctions and their conjuncts, disjuncts and their disjunctions,
//! negations the other way round, permuted and widened disjunctions, and
//! contradictory conjunctions such as `x = A ∧ x = B`.

use proptest::prelude::*;
use pubsub_core::analysis::{implies, ImplicationProfile, ImplicationSummary};
use pubsub_core::{Expr, Operator, Predicate, Value};

/// Four attributes nearly every predicate uses, and seventy more so that
/// some pairs of attribute ids agree modulo 64 (the interner is
/// process-global and append-only, hence a fixed pool).
fn attr_name() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => (0usize..4).prop_map(|i| format!("ip_{i}")),
        1 => (0usize..70).prop_map(|i| format!("ip_wide_{i}")),
    ]
}

/// Few constants of every type: equal ones, `Int`/`Float` twins that
/// compare equal but are different constants, both zeros, NaN.
fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        (0usize..5).prop_map(|i| Value::Float([0.0, -0.0, 1.0, 2.0, 2.5][i])),
        (0usize..4).prop_map(|i| Value::from(["a", "ab", "abc", "b"][i])),
        prop::bool::ANY.prop_map(Value::Bool),
        Just(Value::Float(f64::NAN)),
    ]
    .boxed()
}

fn predicate() -> impl Strategy<Value = Expr> {
    // Equality is what the profile is about: every other predicate is one.
    let operator = prop_oneof![
        1 => Just(Operator::Eq),
        1 => (0usize..Operator::ALL.len()).prop_map(|i| Operator::ALL[i]),
    ];
    (attr_name(), operator, value())
        .prop_map(|(name, operator, value)| Expr::Pred(Predicate::new(name, operator, value)))
}

fn expr() -> BoxedStrategy<Expr> {
    predicate().boxed().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::Or),
            inner.prop_map(Expr::not),
        ]
    })
}

/// A `(stronger, weaker)` candidate pair.
fn pair() -> BoxedStrategy<(Expr, Expr)> {
    (
        expr(),
        expr(),
        expr(),
        0usize..10,
        attr_name(),
        value(),
        value(),
    )
        .prop_map(|(a, b, c, shape, name, v1, v2)| {
            let eq = |v: &Value| Expr::eq(&name, v.clone());
            match shape {
                0 => (Expr::And(vec![a.clone(), b]), a),
                1 => (a.clone(), Expr::Or(vec![b, a])),
                2 => (
                    Expr::And(vec![a.clone(), b.clone()]),
                    Expr::And(vec![Expr::Or(vec![c.clone(), b]), Expr::Or(vec![a, c])]),
                ),
                3 => (
                    Expr::not(Expr::Or(vec![a.clone(), b])),
                    Expr::not(Expr::And(vec![a, c])),
                ),
                4 => (
                    Expr::Or(vec![a.clone(), b.clone()]),
                    Expr::Or(vec![b, c, a]),
                ),
                // x = A ∧ x = B implies x = A, x = B and whatever those do.
                5 => (Expr::And(vec![eq(&v1), eq(&v2), a]), eq(&v2)),
                6 => (
                    Expr::And(vec![Expr::Or(vec![eq(&v1), eq(&v2)]), a]),
                    Expr::Or(vec![eq(&v2), eq(&v1), eq(&Value::Int(7))]),
                ),
                7 => (
                    Expr::And(vec![eq(&v1), a.clone(), b]),
                    Expr::And(vec![Expr::Or(vec![eq(&v2), eq(&v1)]), Expr::Or(vec![a, c])]),
                ),
                _ => (a, b),
            }
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn implies_is_never_ruled_out(pair in pair()) {
        let (stronger, weaker) = pair;
        if implies(&stronger, &weaker) {
            prop_assert!(
                ImplicationSummary::of(&stronger).may_imply(&ImplicationSummary::of(&weaker)),
                "summaries refuse {:?} => {:?}", stronger, weaker
            );
            let s = ImplicationProfile::of(&stronger);
            let w = ImplicationProfile::of(&weaker);
            for attr in w.required() {
                prop_assert!(s.required().contains(attr), "{attr} is not required");
            }
            for bound in w.bounded() {
                let own = s.bounded().iter().find(|own| own.attr() == bound.attr());
                let hit = own.is_some_and(|own| {
                    own.probe_keys().iter().any(|key| bound.filing_keys().contains(key))
                });
                prop_assert!(
                    hit,
                    "no probe of {:?} finds {:?} under {}", stronger, weaker, bound.attr()
                );
            }
        }
    }

    /// Every expression implies itself, so it must find itself.
    #[test]
    fn an_expression_is_its_own_candidate(expr in expr()) {
        // A NaN constant equals nothing, itself included.
        if implies(&expr, &expr) {
            let profile = ImplicationProfile::of(&expr);
            prop_assert!(profile.summary().may_imply(&profile.summary()));
            for bound in profile.bounded() {
                prop_assert!(!bound.filing_keys().is_empty());
                prop_assert!(bound.probe_keys().iter().any(|key| bound.filing_keys().contains(key)));
            }
        }
    }
}
