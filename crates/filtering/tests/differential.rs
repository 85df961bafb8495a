//! Differential and allocation-regression tests for the matching engines.
//!
//! * The counting and A-Tree engines must agree with the naive baseline on
//!   random workloads drawn from the `workload` generators (the same
//!   generators the benchmarks and experiments use), across seeds and under
//!   churn.
//! * `match_batch` must agree with per-event `match_event` on both engines,
//!   including when subscriptions churn between batches, and single-event
//!   matching must agree with the baseline after every single mutation.
//! * Populations that mix subscriptions indexed under an access clause with
//!   ungated ones agree with the baseline through churn that adds, moves and
//!   removes access clauses, on every engine, path and pre-filter mode.
//! * Every engine delivers each match with the subscriber the naive
//!   baseline reports, batch and single-event, through churn and through
//!   ids re-registered under another subscriber.
//! * After warmup, repeated matching — per event or per batch — must not
//!   allocate any new scratch: the generation-stamped counters, touched
//!   lists, event view, and the batch match buffer are reused.

use filtering::{
    ATreeEngine, AnalyzeMode, CountingEngine, DiscriminationHint, EngineConfig, MatchSink,
    MatchingEngine, NaiveEngine, PerEventSink, PrefilterMode,
};
use proptest::prelude::*;
use pubsub_core::{
    EventBatch, EventMessage, Expr, Operator, SubscriberId, Subscription, SubscriptionId, Value,
};
use workload::{WorkloadConfig, WorkloadGenerator};

proptest! {
    /// Counting and naive engines produce identical match sets on random
    /// auction workloads (any divergence would be a soundness bug in the
    /// index, the pmin shortcut, or the mask evaluation).
    #[test]
    fn counting_agrees_with_naive_on_random_workloads(seed in 0u64..32) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(150);
        let events = generator.events(60);

        let mut counting = CountingEngine::with_capacity(subscriptions.len());
        let mut naive = NaiveEngine::new();
        for s in &subscriptions {
            counting.insert(s.clone());
            naive.insert(s.clone());
        }
        for (i, event) in events.iter().enumerate() {
            let a = counting.match_event(event);
            let mut b = naive.match_event(event);
            b.sort();
            prop_assert_eq!(&a, &b, "divergence on seed {} event {}", seed, i);
        }
    }

    /// Agreement survives churn: removing and re-registering a slice of the
    /// subscriptions (exercising slot reuse) must not change results.
    #[test]
    fn counting_agrees_with_naive_under_churn(seed in 0u64..16) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(120);
        let events = generator.events(40);

        let mut counting = CountingEngine::new();
        let mut naive = NaiveEngine::new();
        for s in &subscriptions {
            counting.insert(s.clone());
            naive.insert(s.clone());
        }
        // Remove every third subscription, then re-register half of those —
        // freed slots get reused with different subscription ids.
        let removed: Vec<_> = subscriptions
            .iter()
            .step_by(3)
            .map(|s| s.id())
            .collect();
        for id in &removed {
            counting.remove(*id).unwrap();
            naive.remove(*id).unwrap();
        }
        for s in subscriptions.iter().step_by(6) {
            counting.insert(s.clone());
            naive.insert(s.clone());
        }
        for (i, event) in events.iter().enumerate() {
            let a = counting.match_event(event);
            let mut b = naive.match_event(event);
            b.sort();
            prop_assert_eq!(&a, &b, "divergence on seed {} event {}", seed, i);
        }
    }

    /// `match_batch` over a random batch equals per-event `match_event` on
    /// both engines — including mid-batch churn: subscriptions are removed
    /// and re-registered between batches (exercising slot reuse inside the
    /// batch scratch), and every batch is checked against the per-event
    /// results of the *current* subscription set.
    #[test]
    fn match_batch_agrees_with_per_event_matching(seed in 0u64..24) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(140);

        let mut counting = CountingEngine::new();
        let mut naive = NaiveEngine::new();
        for s in &subscriptions {
            counting.insert(s.clone());
            naive.insert(s.clone());
        }

        let mut counting_sink = PerEventSink::new();
        let mut naive_sink = PerEventSink::new();
        for round in 0..3usize {
            let batch: EventBatch = generator.events(25).into_iter().collect();
            counting.match_batch(&batch, &mut counting_sink);
            naive.match_batch(&batch, &mut naive_sink);
            prop_assert_eq!(counting_sink.len(), batch.len());
            prop_assert_eq!(naive_sink.len(), batch.len());
            for (i, event) in batch.iter().enumerate() {
                let event = &event.to_message();
                // Reference: the engines' own single-event path.
                let expected_counting = counting.match_event(event);
                let mut expected_naive = naive.match_event(event);
                expected_naive.sort();
                prop_assert_eq!(
                    counting_sink.for_event(i),
                    &expected_counting[..],
                    "counting batch/single divergence on seed {} round {} event {}",
                    seed, round, i
                );
                prop_assert_eq!(
                    naive_sink.for_event(i),
                    &expected_naive[..],
                    "naive batch/single divergence on seed {} round {} event {}",
                    seed, round, i
                );
                prop_assert_eq!(
                    counting_sink.for_event(i),
                    naive_sink.for_event(i),
                    "engine divergence on seed {} round {} event {}",
                    seed, round, i
                );
            }
            // Churn between batches: remove every third subscription, then
            // re-register every sixth, so freed slots get reused with
            // different ids before the next batch.
            for s in subscriptions.iter().step_by(3) {
                counting.remove(s.id());
                naive.remove(s.id());
            }
            for s in subscriptions.iter().step_by(6) {
                counting.insert(s.clone());
                naive.insert(s.clone());
            }
        }
    }

    /// The stage-0 pre-filter is a pure work-avoidance optimization: with the
    /// pre-filter forced on (with a sampled discrimination hint installed),
    /// forced off, and on the naive baseline, the match streams must be
    /// byte-identical on the counting engine, across subscription churn, empty batches, and events missing some or
    /// all of the schema's attributes (the pre-filter's kill condition).
    #[test]
    fn prefilter_on_off_and_naive_agree(seed in 0u64..16) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(140);
        let hint = DiscriminationHint::from_events(&generator.events(200));

        let on = EngineConfig::with_prefilter(PrefilterMode::On);
        let off = EngineConfig::with_prefilter(PrefilterMode::Off);
        let mut naive = NaiveEngine::new();
        let mut counting_on = CountingEngine::with_config(on);
        counting_on.set_discrimination_hint(Some(hint));
        let mut counting_off = CountingEngine::with_config(off);
        for s in &subscriptions {
            naive.insert(s.clone());
            counting_on.insert(s.clone());
            counting_off.insert(s.clone());
        }
        prop_assert!(counting_on.prefilter_enabled());
        prop_assert!(!counting_off.prefilter_enabled());

        let mut reference_sink = PerEventSink::new();
        let mut got_sink = PerEventSink::new();
        let mut single = Vec::new();
        for round in 0..4usize {
            // Round 2 is the empty batch; round 1 interleaves sparse events
            // (some or all schema attributes absent) with generated ones.
            let batch: EventBatch = match round {
                2 => EventBatch::new(),
                1 => generator
                    .events(12)
                    .into_iter()
                    .flat_map(|event| {
                        let sparse = EventMessage::builder()
                            .attr(workload::attributes::TITLE, "an unlisted title")
                            .build();
                        [event, sparse, EventMessage::builder().build()]
                    })
                    .collect(),
                _ => generator.events(25).into_iter().collect(),
            };
            naive.match_batch(&batch, &mut reference_sink);
            for (name, engine) in [
                ("counting on", &mut counting_on as &mut dyn MatchingEngine),
                ("counting off", &mut counting_off),
            ] {
                engine.match_batch(&batch, &mut got_sink);
                prop_assert_eq!(got_sink.len(), reference_sink.len());
                for (i, event) in batch.iter().enumerate() {
                    let event = &event.to_message();
                    prop_assert_eq!(
                        got_sink.for_event(i),
                        reference_sink.for_event(i),
                        "{} diverged from naive on seed {} round {} event {}",
                        name, seed, round, i
                    );
                    // The single-event path runs the same pipeline without
                    // batch probing; it must agree too.
                    engine.match_event_into(event, &mut single);
                    prop_assert_eq!(
                        &single[..],
                        reference_sink.for_event(i),
                        "{} single-event path diverged on seed {} round {} event {}",
                        name, seed, round, i
                    );
                }
            }
            // Churn between rounds: remove every third subscription, then
            // re-register every sixth — the pre-filter must recompile
            // against the changed population on every engine.
            for s in subscriptions.iter().step_by(3) {
                naive.remove(s.id());
                counting_on.remove(s.id());
                counting_off.remove(s.id());
            }
            for s in subscriptions.iter().step_by(6) {
                naive.insert(s.clone());
                counting_on.insert(s.clone());
                counting_off.insert(s.clone());
            }
        }
    }

    /// The A-Tree engine is byte-identical to the counting engine and the
    /// naive baseline on random workloads — batch and single-event paths,
    /// registration-time analysis on and off — including churn between batches (DAG reference-count
    /// release, interning-slab slot reuse, and the empty-batch edge case).
    #[test]
    fn atree_agrees_with_counting_and_naive(seed in 0u64..16) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(140);

        let analyze_on = EngineConfig::default();
        let analyze_off = EngineConfig::with_analyze(AnalyzeMode::Off);
        let mut naive = NaiveEngine::new();
        let mut counting = CountingEngine::new();
        let mut atree_on = ATreeEngine::with_config(analyze_on);
        let mut atree_off = ATreeEngine::with_config(analyze_off);
        for s in &subscriptions {
            naive.insert(s.clone());
            counting.insert(s.clone());
            atree_on.insert(s.clone());
            atree_off.insert(s.clone());
        }

        let mut reference_sink = PerEventSink::new();
        let mut got_sink = PerEventSink::new();
        let mut single = Vec::new();
        for round in 0..3usize {
            // Round 2 exercises the empty batch explicitly.
            let batch: EventBatch = if round == 2 {
                EventBatch::new()
            } else {
                generator.events(25).into_iter().collect()
            };
            counting.match_batch(&batch, &mut reference_sink);
            for (name, engine) in [
                ("naive", &mut naive as &mut dyn MatchingEngine),
                ("atree analyze-on", &mut atree_on),
                ("atree analyze-off", &mut atree_off),
            ] {
                engine.match_batch(&batch, &mut got_sink);
                prop_assert_eq!(got_sink.len(), reference_sink.len());
                for (i, event) in batch.iter().enumerate() {
                    let event = &event.to_message();
                    let mut got = got_sink.for_event(i).to_vec();
                    // The naive baseline emits unsorted; everything else is
                    // contractually id-sorted already and the sort is a
                    // no-op.
                    got.sort();
                    prop_assert_eq!(
                        &got[..],
                        reference_sink.for_event(i),
                        "{} batch path diverged from counting on seed {} round {} event {}",
                        name, seed, round, i
                    );
                    engine.match_event_into(event, &mut single);
                    single.sort();
                    prop_assert_eq!(
                        &single[..],
                        reference_sink.for_event(i),
                        "{} single-event path diverged on seed {} round {} event {}",
                        name, seed, round, i
                    );
                }
            }
            // Churn between batches: remove every third subscription, then
            // re-register every sixth — DAG nodes must be released and
            // re-interned without leaking into the match results.
            for s in subscriptions.iter().step_by(3) {
                naive.remove(s.id());
                counting.remove(s.id());
                atree_on.remove(s.id());
                atree_off.remove(s.id());
            }
            for s in subscriptions.iter().step_by(6) {
                naive.insert(s.clone());
                counting.insert(s.clone());
                atree_on.insert(s.clone());
                atree_off.insert(s.clone());
            }
        }
    }
}

/// A test-local sink that keeps every match whole: `(event index, id,
/// subscriber)`. The library's sinks store ids only, so they cannot see an
/// engine deliver the right id for the wrong subscriber.
#[derive(Default)]
struct TripleSink(Vec<(usize, SubscriptionId, SubscriberId)>);

impl MatchSink for TripleSink {
    fn begin_batch(&mut self, _batch_len: usize) {
        self.0.clear();
    }

    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, subscriber: SubscriberId) {
        self.0.push((event_index, sub, subscriber));
    }
}

proptest! {
    // Three engines, both paths, four rounds: sixteen seeds cover it.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every engine hands each match to its sink with the subscriber the
    /// naive baseline reports for it, in the same `(event, id)` order: the
    /// counting engine and the A-Tree with analysis on and off; on the batch
    /// path and on the single-event one (a batch of one); through churn, and through
    /// re-registering live ids under another subscriber — with their own
    /// tree, so an A-Tree replacement lands on the root the id already
    /// sits at, and with another subscription's tree.
    #[test]
    fn every_engine_delivers_the_naive_subscribers(seed in 0u64..16) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(140);

        let analyze_off = EngineConfig::with_analyze(AnalyzeMode::Off);
        let mut naive = NaiveEngine::new();
        let mut engines: Vec<(&str, Box<dyn MatchingEngine>)> = vec![
            ("counting", Box::new(CountingEngine::new())),
            ("atree", Box::new(ATreeEngine::new())),
            ("atree analyze-off", Box::new(ATreeEngine::with_config(analyze_off))),
        ];
        let register = |naive: &mut NaiveEngine,
                            engines: &mut Vec<(&str, Box<dyn MatchingEngine>)>,
                            s: &Subscription| {
            naive.insert(s.clone());
            for (_, engine) in engines.iter_mut() {
                engine.insert(s.clone());
            }
        };
        for s in &subscriptions {
            register(&mut naive, &mut engines, s);
        }

        let mut expected = TripleSink::default();
        let mut got = TripleSink::default();
        for round in 0..4u64 {
            let events = generator.events(20);
            let batch: EventBatch = events.iter().cloned().collect();
            naive.match_batch(&batch, &mut expected);
            for (name, engine) in engines.iter_mut() {
                engine.match_batch(&batch, &mut got);
                prop_assert_eq!(
                    &got.0, &expected.0,
                    "{} batch path, seed {} round {}", name, seed, round
                );
            }
            for event in &events {
                let one: EventBatch = std::iter::once(event.clone()).collect();
                naive.match_batch(&one, &mut expected);
                for (name, engine) in engines.iter_mut() {
                    engine.match_batch(&one, &mut got);
                    prop_assert_eq!(
                        &got.0, &expected.0,
                        "{} single-event path, seed {} round {}", name, seed, round
                    );
                }
            }
            // Churn, then move live ids to another subscriber: every fifth
            // keeps its tree, every seventh takes its neighbour's.
            for s in subscriptions.iter().step_by(3) {
                naive.remove(s.id());
                for (_, engine) in engines.iter_mut() {
                    engine.remove(s.id());
                }
            }
            for s in subscriptions.iter().step_by(6) {
                register(&mut naive, &mut engines, s);
            }
            for (i, s) in subscriptions.iter().enumerate() {
                let subscriber = SubscriberId::from_raw(1_000 + 100 * round + i as u64 % 100);
                let tree = match (i % 5, i % 7) {
                    (0, _) => s.tree().clone(),
                    (_, 0) => subscriptions[(i + 1) % subscriptions.len()].tree().clone(),
                    _ => continue,
                };
                if naive.get(s.id()).is_some() {
                    register(&mut naive, &mut engines, &Subscription::new(s.id(), subscriber, tree));
                }
            }
        }
    }
}

proptest! {
    // Every seed is one 1,800-step script; a few of them is plenty.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The churn shape: one mutation, one single-event match, repeat — so
    /// stage 0 and the interval index absorb every insert / replace / remove
    /// on their own instead of rebuilding once per batch of mutations. The
    /// population grows from nothing past `Auto`'s floor of 32 and drains
    /// back below it; matches equal the naive engine's after every step.
    #[test]
    fn counting_follows_single_mutation_churn(seed in 0u64..1024) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let pool = generator.subscriptions(140);
        let events = generator.events(64);
        let hint = DiscriminationHint::from_events(&events);
        let mut rng = proptest::TestRng::deterministic(seed);

        for mode in [PrefilterMode::On, PrefilterMode::Auto] {
            let mut counting = CountingEngine::with_config(EngineConfig::with_prefilter(mode));
            counting.set_discrimination_hint(Some(hint.clone()));
            let mut naive = NaiveEngine::new();
            let mut single = Vec::new();
            let mut seen_enabled = false;
            for step in 0..900usize {
                // Grow at random for 600 steps, then drain id by id.
                let (target, insert) = if step < 600 {
                    (&pool[rng.index(pool.len())], rng.index(10) < 8)
                } else {
                    (&pool[step % pool.len()], rng.index(10) < 1)
                };
                if insert {
                    // A live id is replaced — by another subscription's tree
                    // as often as by its own.
                    let body = &pool[rng.index(pool.len())];
                    let subscription = target.with_tree(body.tree().clone());
                    counting.insert(subscription.clone());
                    naive.insert(subscription);
                } else {
                    prop_assert_eq!(
                        counting.remove(target.id()).is_some(),
                        naive.remove(target.id()).is_some()
                    );
                }
                let event = &events[rng.index(events.len())];
                counting.match_event_into(event, &mut single);
                let mut expected = naive.match_event(event);
                expected.sort();
                prop_assert_eq!(&single, &expected, "{:?} seed {} step {}", mode, seed, step);
                seen_enabled |= counting.prefilter_enabled();
            }
            prop_assert!(seen_enabled, "{:?} never ran stage 0", mode);
            prop_assert!(counting.len() < 32, "the drain left {}", counting.len());
            prop_assert_eq!(counting.prefilter_enabled(), mode == PrefilterMode::On);
        }
    }
}

/// Attribute names of the gating population, private to this suite.
const G_TITLE: &str = "gate_title";
const G_COND: &str = "gate_cond";
const G_BUY: &str = "gate_buy_now";
const G_CAT: &str = "gate_category";
const G_X: &str = "gate_x";
const G_Y: &str = "gate_y";
const G_NAME: &str = "gate_name";

/// Numbers for thresholds, equality constants and event values: `Int`/
/// `Float` twins, both zeros, and ints on both sides of ±2^53, where an
/// `i64` comparison and an `f64` one part ways.
fn gate_numbers() -> Vec<Value> {
    let big = 1i64 << 53;
    vec![
        Value::Int(-1),
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(2.5),
        Value::Int(3),
        Value::Float(3.0),
        Value::Int(7),
        Value::Int(big - 1),
        Value::Int(big),
        Value::Int(big + 1),
        Value::Int(big + 2),
        Value::Float(big as f64),
        Value::Int(-big),
        Value::Int(-big - 1),
    ]
}

/// One random body of the gating population. Shapes, by `kind`:
/// several required equalities (access + key + bound); an equality group
/// only; no equality; `Not`-only (`pmin` 0); a `NaN` equality constant
/// (alone: no access clause; in a group: left out of it); a numeric access
/// clause over twins; a title clause with a bound beyond 2^53; `Prefix` /
/// `Contains` leaves, gated and not; a disjunction with nothing required;
/// an equality group with a child on an int beyond or at ±2^53 (the group
/// is then no access clause, a title beside it may be); an equality on an
/// int beyond 2^53 (never an access clause).
fn gate_body(rng: &mut proptest::TestRng) -> Expr {
    let numbers = gate_numbers();
    let mut num = || numbers[rng.index(numbers.len())].clone();
    let (n, m, k) = (num(), num(), num());
    let title = format!("t{}", rng.index(5));
    let cond = ["new", "used", "worn"][rng.index(3)];
    let cat = |i: usize| format!("c{i}");
    let bound = |rng: &mut proptest::TestRng, attr: &str, v: Value| match rng.index(4) {
        0 => Expr::lt(attr, v),
        1 => Expr::le(attr, v),
        2 => Expr::gt(attr, v),
        _ => Expr::ge(attr, v),
    };
    let big = 1i64 << 53;
    match rng.index(12) {
        0 => {
            let mut clauses = vec![Expr::eq(G_TITLE, title.as_str()), bound(rng, G_X, n)];
            if rng.index(2) == 0 {
                clauses.push(Expr::eq(G_COND, cond));
            }
            if rng.index(2) == 0 {
                clauses.push(Expr::eq(G_BUY, true));
            }
            Expr::and(clauses)
        }
        1 => {
            let first = rng.index(5);
            let mut group = vec![Expr::eq(G_CAT, cat(first).as_str())];
            for _ in 0..rng.index(3) {
                group.push(Expr::eq(G_CAT, cat(rng.index(5)).as_str()));
            }
            Expr::and(vec![Expr::or(group), bound(rng, G_X, n)])
        }
        2 => Expr::and(vec![bound(rng, G_X, n), bound(rng, G_Y, m)]),
        3 => Expr::not(Expr::eq(G_TITLE, title.as_str())),
        4 => match rng.index(2) {
            0 => Expr::and(vec![Expr::eq(G_X, f64::NAN), bound(rng, G_Y, m)]),
            _ => Expr::and(vec![
                Expr::or(vec![
                    Expr::eq(G_CAT, cat(rng.index(5)).as_str()),
                    Expr::eq(G_CAT, f64::NAN),
                ]),
                bound(rng, G_Y, m),
            ]),
        },
        5 => Expr::and(vec![
            Expr::eq(G_X, n),
            bound(rng, G_Y, m),
            bound(rng, G_X, k),
        ]),
        6 => {
            let edge = [big - 1, big, big + 1, -big - 1][rng.index(4)];
            Expr::and(vec![
                Expr::eq(G_TITLE, title.as_str()),
                bound(rng, G_X, Value::Int(edge)),
            ])
        }
        7 => match rng.index(2) {
            0 => Expr::and(vec![
                Expr::eq(G_TITLE, title.as_str()),
                Expr::prefix(G_NAME, ["ab", "b", "x"][rng.index(3)]),
            ]),
            _ => Expr::and(vec![
                Expr::contains(G_NAME, ["b", "c", "yz"][rng.index(3)]),
                bound(rng, G_X, n),
            ]),
        },
        8 => Expr::or(vec![Expr::eq(G_TITLE, title.as_str()), bound(rng, G_X, n)]),
        9 => Expr::and(vec![
            Expr::eq(G_X, Value::Int([big + 1, -big - 1, big][rng.index(3)])),
            Expr::eq(G_COND, cond),
        ]),
        10 => {
            let edge = Value::Int([big + 1, -big - 1, big, big - 1][rng.index(4)]);
            let mut clauses = vec![
                Expr::or(vec![Expr::eq(G_X, n), Expr::eq(G_X, edge)]),
                bound(rng, G_Y, m),
            ];
            if rng.index(2) == 0 {
                clauses.push(Expr::eq(G_TITLE, title.as_str()));
            }
            Expr::and(clauses)
        }
        _ => Expr::eq(G_X, Value::Int(big + 1)),
    }
}

/// A random event over the gating attributes; any attribute may be absent.
fn gate_event(rng: &mut proptest::TestRng) -> EventMessage {
    let numbers = gate_numbers();
    let mut event = EventMessage::builder();
    if rng.index(6) != 0 {
        event = event.attr(G_TITLE, format!("t{}", rng.index(6)).as_str());
    }
    if rng.index(4) != 0 {
        event = event.attr(G_COND, ["new", "used", "worn", "fair"][rng.index(4)]);
    }
    if rng.index(3) != 0 {
        event = event.attr(G_BUY, rng.index(2) == 0);
    }
    if rng.index(3) != 0 {
        event = event.attr(G_CAT, format!("c{}", rng.index(6)).as_str());
    }
    if rng.index(8) != 0 {
        event = event.attr(G_X, numbers[rng.index(numbers.len())].clone());
    }
    if rng.index(4) != 0 {
        let y = match rng.index(6) {
            0 => Value::from("not a number"),
            1 => Value::Float(f64::NAN),
            _ => numbers[rng.index(numbers.len())].clone(),
        };
        event = event.attr(G_Y, y);
    }
    if rng.index(3) != 0 {
        event = event.attr(G_NAME, ["abc", "bcd", "xyz"][rng.index(3)]);
    }
    event.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gating goes both ways: a population mixing subscriptions indexed
    /// under an access clause with ungated ones (pure ranges, `Not`-only,
    /// `NaN` and beyond-2^53 constants, pattern leaves, disjunctions), under
    /// churn that replaces bodies at random — which adds or removes an access
    /// clause — and prunes `title = T` away the way network-load pruning
    /// does, so an entry filed under its title is re-filed under another
    /// clause or loses gating altogether. Counting engines in every
    /// pre-filter mode, over raw trees and over the analyzer's normal form,
    /// and the A-Tree (whose Ands wait on
    /// an access child) with analysis on and off, batch and single-event
    /// paths, equal the naive engine's matches throughout.
    #[test]
    fn gated_and_ungated_populations_agree_with_naive(seed in 0u64..4096) {
        let mut rng = proptest::TestRng::deterministic(seed);
        let warmup: Vec<EventMessage> = (0..64).map(|_| gate_event(&mut rng)).collect();
        let hint = DiscriminationHint::from_events(&warmup);
        let title_attr = pubsub_core::attr::intern(G_TITLE);

        let mut naive = NaiveEngine::new();
        let mut engines: Vec<(String, Box<dyn MatchingEngine>)> = Vec::new();
        for mode in [PrefilterMode::On, PrefilterMode::Off, PrefilterMode::Auto] {
            // Raw trees reach one counting index (`NaN`, duplicates, twins);
            // the other sees the analyzer's normal form.
            let raw = EngineConfig::with_prefilter(mode).analyze(AnalyzeMode::Off);
            let mut counting = CountingEngine::with_config(raw);
            if mode == PrefilterMode::On {
                counting.set_discrimination_hint(Some(hint.clone()));
            }
            engines.push((format!("counting {mode:?}"), Box::new(counting)));
            let mut analyzed = CountingEngine::with_config(EngineConfig::with_prefilter(mode));
            if mode == PrefilterMode::Auto {
                analyzed.set_discrimination_hint(Some(hint.clone()));
            }
            engines.push((format!("counting analyzed {mode:?}"), Box::new(analyzed)));
        }
        // The A-Tree gates an And on one default-false child; raw trees give
        // it duplicated leaves and `NaN` equalities to choose among.
        for analyze in [AnalyzeMode::Off, AnalyzeMode::On] {
            let atree = ATreeEngine::with_config(EngineConfig::default().analyze(analyze));
            engines.push((format!("atree analyze {analyze:?}"), Box::new(atree)));
        }

        let mut got = PerEventSink::new();
        let mut expected = PerEventSink::new();
        let mut single = Vec::new();
        let (mut pruned, mut steps_since_match) = (0usize, 0usize);
        for step in 0..240usize {
            let id = SubscriptionId::from_raw(1 + rng.index(70) as u64);
            let live = naive.get(id).cloned();
            let title_leaf = live.as_ref().and_then(|s| {
                s.tree()
                    .predicates()
                    .find(|(_, p)| p.attr_id() == title_attr && p.operator() == Operator::Eq)
                    .map(|(node, _)| node)
                    .filter(|&node| s.tree().is_valid_prune(node))
            });
            match (rng.index(10), live, title_leaf) {
                // Prune the title clause away, as network-load pruning would.
                (0..=2, Some(live), Some(node)) => {
                    let replacement = live.with_tree(live.tree().prune(node).unwrap());
                    pruned += 1;
                    naive.insert(replacement.clone());
                    for (_, engine) in &mut engines {
                        engine.insert(replacement.clone());
                    }
                }
                // Unsubscribe a live id.
                (0..=1, Some(_), None) | (3, Some(_), _) => {
                    prop_assert!(naive.remove(id).is_some());
                    for (name, engine) in &mut engines {
                        prop_assert!(engine.remove(id).is_some(), "{}", name);
                    }
                }
                // Subscribe, or replace a live id's body with a random one.
                _ => {
                    let body = gate_body(&mut rng);
                    let s = Subscription::from_expr(id, SubscriberId::from_raw(1), &body);
                    naive.insert(s.clone());
                    for (_, engine) in &mut engines {
                        engine.insert(s.clone());
                    }
                }
            }

            steps_since_match += 1;
            if steps_since_match < 6 && step + 1 < 240 {
                continue;
            }
            steps_since_match = 0;
            let batch: EventBatch = (0..1 + rng.index(24)).map(|_| gate_event(&mut rng)).collect();
            naive.match_batch(&batch, &mut expected);
            for (name, engine) in &mut engines {
                engine.match_batch(&batch, &mut got);
                for (i, event) in batch.iter().enumerate() {
                    let event = &event.to_message();
                    let mut want = expected.for_event(i).to_vec();
                    want.sort();
                    prop_assert_eq!(
                        got.for_event(i), &want[..],
                        "{} batch path, seed {} step {} event {}", name, seed, step, event
                    );
                    engine.match_event_into(event, &mut single);
                    prop_assert_eq!(
                        &single[..], &want[..],
                        "{} single-event path, seed {} step {} event {}", name, seed, step, event
                    );
                }
            }
        }
        prop_assert!(pruned > 0, "no title clause was pruned");
        let (name, counting_on) = &engines[0];
        prop_assert!(counting_on.stats().killed_by_prefilter > 0, "{} killed nothing", name);
    }
}

/// The acceptance test for the zero-allocation hot path: once the engine has
/// seen one pass over the event set, further matching grows no scratch
/// buffer (counters, generation stamps, touched list), which is observable
/// through `scratch_capacity()` / `scratch_grows()`.
#[test]
fn steady_state_matching_allocates_no_new_scratch() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
    let subscriptions = generator.subscriptions(2_000);
    let events = generator.events(300);

    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in &subscriptions {
        engine.insert(s.clone());
    }

    // Warm-up pass: scratch buffers grow to their steady-state sizes.
    let mut matches = Vec::new();
    for event in &events {
        engine.match_event_into(event, &mut matches);
    }
    let grows_after_warmup = engine.scratch_grows();
    let capacity_after_warmup = engine.scratch_capacity();
    assert!(capacity_after_warmup > 0, "warmup should allocate scratch");

    // Steady state: the second and every later pass reuse the scratch.
    for _ in 0..3 {
        for event in &events {
            engine.match_event_into(event, &mut matches);
        }
    }
    assert_eq!(
        engine.scratch_grows(),
        grows_after_warmup,
        "match_event grew scratch after warmup"
    );
    assert_eq!(engine.scratch_capacity(), capacity_after_warmup);
}

/// The batch analogue of the zero-allocation acceptance test: once warmed
/// up, driving batch after batch through `match_batch` grows neither the
/// engine scratch (counters, stamps, touch list, match buffer) nor the
/// reused batch and sink — zero steady-state growth across batches.
#[test]
fn steady_state_batch_matching_allocates_no_new_scratch() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
    let subscriptions = generator.subscriptions(2_000);

    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in &subscriptions {
        engine.insert(s.clone());
    }

    // Warm-up: a few refill/match cycles size every buffer, including the
    // batch arena, whose width varies slightly from batch to batch.
    let mut batch = EventBatch::new();
    let mut sink = PerEventSink::new();
    for _ in 0..3 {
        generator.fill_event_batch(128, &mut batch);
        engine.match_batch(&batch, &mut sink);
    }

    let grows_after_warmup = engine.scratch_grows();
    let engine_capacity = engine.scratch_capacity();
    let batch_capacity = batch.capacity();
    assert!(engine_capacity > 0, "warmup should allocate scratch");

    // Steady state: refilling the same batch and matching it repeatedly
    // must not grow anything.
    for _ in 0..5 {
        generator.fill_event_batch(128, &mut batch);
        engine.match_batch(&batch, &mut sink);
    }
    assert_eq!(
        engine.scratch_grows(),
        grows_after_warmup,
        "match_batch grew engine scratch after warmup"
    );
    assert_eq!(engine.scratch_capacity(), engine_capacity);
    assert_eq!(batch.capacity(), batch_capacity, "batch arena reallocated");
}

/// Match output is sorted by subscription id, making results reproducible
/// independent of registration order.
#[test]
fn match_output_is_deterministic_and_sorted() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
    let mut subscriptions = generator.subscriptions(300);
    let events = generator.events(50);

    let mut forward = CountingEngine::new();
    for s in &subscriptions {
        forward.insert(s.clone());
    }
    subscriptions.reverse();
    let mut backward = CountingEngine::new();
    for s in &subscriptions {
        backward.insert(s.clone());
    }
    for event in &events {
        let a = forward.match_event(event);
        let b = backward.match_event(event);
        assert_eq!(a, b, "order of registration leaked into match output");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "matches not sorted");
    }
}
