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
//!
//! A semantic oracle checks `implies` itself on comparison-only pairs over
//! four attributes: it evaluates both sides on one event per combination of
//! value regions, which decides implication exactly for such expressions.

use proptest::prelude::*;
use pubsub_core::analysis::{implies, ImplicationProfile, ImplicationSummary};
use pubsub_core::{EventMessage, Expr, Operator, Predicate, Value};

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
    pair_of(expr(), attr_name().boxed())
}

/// A `(stronger, weaker)` candidate pair built from `expr` sub-expressions
/// and equalities on `attr`.
fn pair_of(expr: BoxedStrategy<Expr>, attr: BoxedStrategy<String>) -> BoxedStrategy<(Expr, Expr)> {
    (
        expr.clone(),
        expr.clone(),
        expr,
        0usize..10,
        attr,
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

/// The four attributes of the oracle's pairs.
fn oracle_attr() -> BoxedStrategy<String> {
    (0usize..4).prop_map(|i| format!("io_{i}")).boxed()
}

/// `=`, `≠`, `<`, `≤`, `>` or `≥`.
fn comparison() -> BoxedStrategy<Operator> {
    (0usize..6).prop_map(|i| Operator::ALL[i]).boxed()
}

/// A comparison on one of `io_0..io_3`.
fn comparison_leaf() -> BoxedStrategy<Predicate> {
    (oracle_attr(), comparison(), value())
        .prop_map(|(name, operator, value)| Predicate::new(name, operator, value))
        .boxed()
}

/// Expressions over `io_0..io_3` using only `=`, `≠`, `<`, `≤`, `>`, `≥`.
fn comparison_expr() -> BoxedStrategy<Expr> {
    let leaf = comparison_leaf().prop_map(Expr::Pred);
    leaf.boxed().prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::Or),
            inner.prop_map(Expr::not),
        ]
    })
}

fn leaves_mut<'a>(expr: &'a mut Expr, out: &mut Vec<&'a mut Predicate>) {
    match expr {
        Expr::Pred(p) => out.push(p),
        Expr::And(children) | Expr::Or(children) => {
            children.iter_mut().for_each(|c| leaves_mut(c, out))
        }
        Expr::Not(child) => leaves_mut(child, out),
    }
}

/// Pairs for the oracle: the shapes `implies` decomposes, the same with
/// one leaf of either side changed (near misses, where an unsound rule
/// would show), and two leaves on one attribute (the `covers` table).
/// Half are negated and swapped: `¬w ⇒ ¬s` exactly when `s ⇒ w`.
fn oracle_pair() -> BoxedStrategy<(Expr, Expr)> {
    let shaped = pair_of(comparison_expr(), oracle_attr());
    let near_miss = (
        shaped.clone(),
        prop::bool::ANY,
        0usize..16,
        comparison(),
        value(),
    )
        .prop_map(|((mut s, mut w), on_weaker, index, operator, constant)| {
            let mut leaves = Vec::new();
            leaves_mut(if on_weaker { &mut w } else { &mut s }, &mut leaves);
            let n = leaves.len();
            let leaf = &mut leaves[index % n];
            **leaf = Predicate::new(leaf.attribute(), operator, constant);
            (s, w)
        });
    let leaves = (comparison_leaf(), comparison(), value()).prop_map(|(p, operator, constant)| {
        let other = Predicate::new(p.attribute(), operator, constant);
        (Expr::Pred(p), Expr::Pred(other))
    });
    (prop_oneof![shaped, near_miss, leaves], prop::bool::ANY)
        .prop_map(|((s, w), flip)| {
            if flip {
                (Expr::not(w), Expr::not(s))
            } else {
                (s, w)
            }
        })
        .boxed()
}

/// One value per region of an attribute's value line, cut at `constants`,
/// for every value type a constant has, and `None` for "absent". A value
/// of a type no constant has fails every comparison, as an absent one does.
fn representatives(constants: &[&Value]) -> Vec<Option<Value>> {
    let mut numbers: Vec<f64> = constants.iter().filter_map(|c| c.as_f64()).collect();
    numbers.retain(|x| !x.is_nan());
    numbers.sort_by(f64::total_cmp);
    // Constants stay far inside ±2^53, so an `Int` compares exactly as its
    // `f64` image and `Float`s stand for both numeric types.
    let mut reps: Vec<Value> = numbers.iter().map(|&x| Value::Float(x)).collect();
    reps.extend(
        numbers
            .windows(2)
            .map(|w| Value::Float((w[0] + w[1]) / 2.0)),
    );
    if let (Some(lo), Some(hi)) = (numbers.first(), numbers.last()) {
        reps.extend([Value::Float(lo - 1.0), Value::Float(hi + 1.0)]);
    }
    // `""` is the least string, and `s + "\0"` the least one above `s`.
    let strings: Vec<&str> = constants.iter().filter_map(|c| c.as_str()).collect();
    if !strings.is_empty() {
        reps.push(Value::from(""));
    }
    for s in strings {
        reps.extend([Value::from(s), Value::from(format!("{s}\0"))]);
    }
    if constants.iter().any(|c| c.as_bool().is_some()) {
        reps.extend([Value::Bool(false), Value::Bool(true)]);
    }
    std::iter::once(None)
        .chain(reps.into_iter().map(Some))
        .collect()
}

/// Whether `holds` is true of every event giving each attribute of `axes`
/// one of its values, the attributes before them fixed by `chosen`.
fn every_event<'a>(
    axes: &'a [(&str, Vec<Option<Value>>)],
    chosen: &mut Vec<(&'a str, &'a Value)>,
    holds: &impl Fn(&EventMessage) -> bool,
) -> bool {
    let Some(((attr, values), rest)) = axes.split_first() else {
        let builder = EventMessage::builder();
        return holds(
            &chosen
                .iter()
                .fold(builder, |b, &(a, v)| b.attr(a, v.clone()))
                .build(),
        );
    };
    values.iter().all(|value| {
        let fixed = chosen.len();
        chosen.extend(value.as_ref().map(|v| (*attr, v)));
        let all = every_event(rest, chosen, holds);
        chosen.truncate(fixed);
        all
    })
}

/// Whether every event that fulfils `stronger` fulfils `weaker`, decided
/// over one event per combination of the attributes' regions.
fn semantically_implies(stronger: &Expr, weaker: &Expr) -> bool {
    let mut predicates = stronger.predicates();
    predicates.extend(weaker.predicates());
    let mut attrs: Vec<&str> = predicates.iter().map(|p| p.attribute()).collect();
    attrs.sort_unstable();
    attrs.dedup();
    let axes: Vec<(&str, Vec<Option<Value>>)> = attrs
        .into_iter()
        .map(|attr| {
            let on_attr = predicates.iter().filter(|p| p.attribute() == attr);
            let constants: Vec<&Value> = on_attr.map(|p| p.constant()).collect();
            (attr, representatives(&constants))
        })
        .collect();
    every_event(&axes, &mut Vec::new(), &|event| {
        !stronger.evaluate(event) || weaker.evaluate(event)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `implies` is sound: it never accepts a pair that some event tells
    /// apart.
    #[test]
    fn implies_agrees_with_the_region_oracle(
        pair in oracle_pair(),
    ) {
        let (stronger, weaker) = pair;
        if implies(&stronger, &weaker) {
            prop_assert!(
                semantically_implies(&stronger, &weaker),
                "implies({:?}, {:?}) but an event fulfils only the first", stronger, weaker
            );
        }
    }
}
