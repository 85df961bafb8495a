//! Differential and allocation-regression tests for the matching engines.
//!
//! * The counting and A-Tree engines must agree with the naive baseline on
//!   random workloads drawn from the `workload` generators (the same
//!   generators the benchmarks and experiments use), across seeds and under
//!   churn.
//! * `match_batch` must agree with per-event `match_event` on both engines,
//!   including when subscriptions churn between batches, and single-event
//!   matching must agree with the baseline after every single mutation.
//! * After warmup, repeated matching — per event or per batch — must not
//!   allocate any new scratch: the generation-stamped counters, leaf masks,
//!   touched lists, and the batch match buffer are reused.

use filtering::{
    ATreeEngine, AnalyzeMode, CountingEngine, DiscriminationHint, EngineConfig, MatchingEngine,
    NaiveEngine, PerEventSink, PrefilterMode, ShardedEngine,
};
use proptest::prelude::*;
use pubsub_core::{EventBatch, EventMessage};
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
            for (i, event) in batch.events().iter().enumerate() {
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
    /// byte-identical — on the counting engine *and* the sharded engine,
    /// across subscription churn, empty batches, and events missing some or
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
        counting_on.set_discrimination_hint(Some(hint.clone()));
        let mut counting_off = CountingEngine::with_config(off);
        let mut sharded_on = ShardedEngine::with_config_shards_and_capacity(on, 3, 0);
        sharded_on.set_discrimination_hint(Some(hint));
        let mut sharded_off = ShardedEngine::with_config_shards_and_capacity(off, 3, 0);
        for s in &subscriptions {
            naive.insert(s.clone());
            counting_on.insert(s.clone());
            counting_off.insert(s.clone());
            sharded_on.insert(s.clone());
            sharded_off.insert(s.clone());
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
                ("sharded on", &mut sharded_on),
                ("sharded off", &mut sharded_off),
            ] {
                engine.match_batch(&batch, &mut got_sink);
                prop_assert_eq!(got_sink.len(), reference_sink.len());
                for (i, event) in batch.events().iter().enumerate() {
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
                sharded_on.remove(s.id());
                sharded_off.remove(s.id());
            }
            for s in subscriptions.iter().step_by(6) {
                naive.insert(s.clone());
                counting_on.insert(s.clone());
                counting_off.insert(s.clone());
                sharded_on.insert(s.clone());
                sharded_off.insert(s.clone());
            }
        }
    }

    /// The sharded engine is byte-identical to the counting engine on
    /// identical workloads, for 1, 2, and 4 shards, including subscription
    /// churn between batches (slot reuse inside every shard's slab) and the
    /// empty-batch edge case. Determinism of the merged output is what makes
    /// `EngineKind::Sharded` a drop-in routing-table engine.
    #[test]
    fn sharded_agrees_with_counting_across_shard_counts(seed in 0u64..16) {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let subscriptions = generator.subscriptions(140);

        let mut reference = CountingEngine::new();
        let mut sharded: Vec<ShardedEngine> = [1usize, 2, 4]
            .iter()
            .map(|&n| ShardedEngine::with_shards(n))
            .collect();
        for s in &subscriptions {
            reference.insert(s.clone());
            for engine in &mut sharded {
                engine.insert(s.clone());
            }
        }

        let mut expected_sink = PerEventSink::new();
        let mut got_sink = PerEventSink::new();
        for round in 0..3usize {
            // Round 2 exercises the empty batch explicitly.
            let batch: EventBatch = if round == 2 {
                EventBatch::new()
            } else {
                generator.events(25).into_iter().collect()
            };
            reference.match_batch(&batch, &mut expected_sink);
            for engine in &mut sharded {
                engine.match_batch(&batch, &mut got_sink);
                prop_assert_eq!(got_sink.len(), expected_sink.len());
                for i in 0..batch.len() {
                    prop_assert_eq!(
                        got_sink.for_event(i),
                        expected_sink.for_event(i),
                        "divergence on seed {} round {} shards {} event {}",
                        seed, round, engine.shard_count(), i
                    );
                }
            }
            // Churn between batches: remove every third subscription, then
            // re-register every sixth with the same id — shard assignment
            // and slot reuse must not leak into the match results.
            for s in subscriptions.iter().step_by(3) {
                reference.remove(s.id());
                for engine in &mut sharded {
                    engine.remove(s.id());
                }
            }
            for s in subscriptions.iter().step_by(6) {
                reference.insert(s.clone());
                for engine in &mut sharded {
                    engine.insert(s.clone());
                }
            }
        }
    }

    /// The A-Tree engine is byte-identical to the counting engine and the
    /// naive baseline on random workloads — batch and single-event paths,
    /// registration-time analysis on and off, alone and sharded over 1, 2,
    /// and 4 shards — including churn between batches (DAG reference-count
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
        let mut sharded: Vec<ShardedEngine<ATreeEngine>> = [1usize, 2, 4]
            .iter()
            .map(|&n| ShardedEngine::<ATreeEngine>::with_shard_engine(analyze_on, n, 0))
            .collect();
        for s in &subscriptions {
            naive.insert(s.clone());
            counting.insert(s.clone());
            atree_on.insert(s.clone());
            atree_off.insert(s.clone());
            for engine in &mut sharded {
                engine.insert(s.clone());
            }
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
            let mut engines: Vec<(&str, &mut dyn MatchingEngine)> = vec![
                ("naive", &mut naive),
                ("atree analyze-on", &mut atree_on),
                ("atree analyze-off", &mut atree_off),
            ];
            for engine in &mut sharded {
                engines.push(("sharded atree", engine));
            }
            for (name, engine) in engines {
                engine.match_batch(&batch, &mut got_sink);
                prop_assert_eq!(got_sink.len(), reference_sink.len());
                for (i, event) in batch.events().iter().enumerate() {
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
                for engine in &mut sharded {
                    engine.remove(s.id());
                }
            }
            for s in subscriptions.iter().step_by(6) {
                naive.insert(s.clone());
                counting.insert(s.clone());
                atree_on.insert(s.clone());
                atree_off.insert(s.clone());
                for engine in &mut sharded {
                    engine.insert(s.clone());
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

/// Sharded matching on an engine with no subscriptions at all (every shard's
/// slab empty) and on empty batches: no matches, correct batch bookkeeping,
/// no panics.
#[test]
fn sharded_empty_slab_and_empty_batch_edge_cases() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
    for shards in [1usize, 2, 4] {
        let mut engine = ShardedEngine::with_shards(shards);
        let mut sink = PerEventSink::new();
        // Empty slab, real batch.
        let batch: EventBatch = generator.events(10).into_iter().collect();
        engine.match_batch(&batch, &mut sink);
        assert_eq!(sink.len(), batch.len());
        assert_eq!(sink.total_matches(), 0, "{shards} shards");
        // Empty slab, empty batch.
        engine.match_batch(&EventBatch::new(), &mut sink);
        assert_eq!(sink.len(), 0);
        // Empty batch with a populated slab.
        for s in generator.subscriptions(20) {
            engine.insert(s);
        }
        engine.match_batch(&EventBatch::new(), &mut sink);
        assert_eq!(sink.len(), 0);
        assert_eq!(engine.stats().batches_filtered, 3);
        assert_eq!(engine.stats().events_filtered, batch.len() as u64);
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

    // Warm-up: a few refill/match cycles size every buffer. (One batch is
    // not enough since the staged pipeline: the batch-probe scratch tracks
    // the batch's arena width and emission count, which vary slightly from
    // batch to batch, so the amortized buffers need a couple of
    // representative batches to reach their plateau.)
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

/// The sharded analogue of the batch scratch-reuse acceptance test: after a
/// warm-up batch, repeated `match_batch` calls grow no scratch on *any*
/// shard — every shard's generation-stamped counters, masks, and match
/// buffer, and the engine's per-shard merge sinks, are all reused.
#[test]
fn sharded_steady_state_matching_reuses_scratch_on_every_shard() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
    let subscriptions = generator.subscriptions(2_000);

    let mut engine = ShardedEngine::with_shards_and_capacity(4, subscriptions.len());
    for s in &subscriptions {
        engine.insert(s.clone());
    }

    // Warm-up: a few refill/match cycles size every shard's buffers (the
    // per-shard match buffers and touch lists grow to the *per-shard*
    // maxima, which a single random batch does not necessarily reach).
    let mut batch = EventBatch::new();
    let mut sink = PerEventSink::new();
    for _ in 0..4 {
        generator.fill_event_batch(128, &mut batch);
        engine.match_batch(&batch, &mut sink);
    }

    let grows_after_warmup = engine.scratch_grows();
    let total_capacity = engine.scratch_capacity();
    let per_shard_capacity = engine.shard_scratch_capacities();
    assert_eq!(per_shard_capacity.len(), 4);
    assert!(
        per_shard_capacity.iter().all(|&c| c > 0),
        "warmup should allocate scratch on every shard: {per_shard_capacity:?}"
    );

    // Steady state: refilling and re-matching must keep every shard's
    // scratch capacity — and the merge sinks — exactly stable.
    for _ in 0..5 {
        generator.fill_event_batch(128, &mut batch);
        engine.match_batch(&batch, &mut sink);
    }
    assert_eq!(
        engine.scratch_grows(),
        grows_after_warmup,
        "a shard grew scratch after warmup"
    );
    assert_eq!(engine.shard_scratch_capacities(), per_shard_capacity);
    assert_eq!(engine.scratch_capacity(), total_capacity);
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
