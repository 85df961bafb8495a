//! The benchmark's own guarantees, checked at `--quick` scale with a fixed
//! number of cycles so every count is deterministic: the trace does not
//! change what the program does, counts repeat exactly for a seed, and what
//! is printed is what `BENCHMARK.json` promises.

use benchmark::compare::{compare, Verdict, GUARDS};
use benchmark::inputs::{generate, Scale};
use benchmark::json::Json;
use benchmark::report::{run_end_to_end, run_per_layer};
use benchmark::spec::{self, end_to_end, per_layer, Workload};
use benchmark::workloads::{execute, prepare, Budget, Outcome};

fn quick_outcome(workload: Workload, seed: u64, traced: bool) -> Outcome {
    let mut inputs = generate(workload, seed, Scale::QUICK);
    let (harness, setup) = prepare(&inputs, traced, true);
    let restarts = usize::from(workload == Workload::Line5Churn);
    execute(&mut inputs, harness, setup, Budget::Cycles(2), restarts)
}

/// The counts of a run that must not depend on anything but the seed.
fn exact_counts(outcome: &Outcome) -> Vec<u64> {
    let filter = outcome.measured.filter_total();
    let network = outcome.measured.network;
    vec![
        outcome.measured.events,
        outcome.verdict.expected,
        network.messages,
        network.frames,
        network.bytes,
        network.control_frames,
        network.control_bytes,
        network.log_bytes,
        outcome.measured.control_call_bytes,
        filter.events_filtered,
        filter.matches,
        filter.stage2_candidates,
        filter.trees_evaluated,
        outcome.memory.total_bytes() as u64,
        outcome.memory.remote_associations as u64,
        outcome.network_total.compactions,
        outcome.network_total.records_replayed,
    ]
}

#[test]
fn every_workload_is_correct_and_the_trace_is_transparent() {
    for workload in Workload::ALL {
        let untraced = quick_outcome(workload, 42, false);
        let traced = quick_outcome(workload, 42, true);
        let name = workload.name();
        assert!(untraced.verdict.expected > 0, "{name}: nothing verified");
        assert_eq!(untraced.failed(), 0, "{name}: {:?}", untraced.verdict);
        assert_eq!(traced.failed(), 0, "{name}: {:?}", traced.verdict);
        assert!(untraced.attempted() >= untraced.verdict.expected);
        // Same deliveries, same link messages, same bytes: the wrapper
        // observes the transport, it does not change what crosses it.
        assert_eq!(exact_counts(&untraced), exact_counts(&traced), "{name}");
        assert!(untraced.trace.is_none() && traced.trace.is_some());
        // Clean links: the reliable layer never has to repair anything.
        assert_eq!(traced.network_total.retransmits, 0, "{name}");
        assert_eq!(traced.network_total.dup_suppressed, 0, "{name}");
        // Publishing journals nothing; only churn writes the log.
        let journaled = traced.measured.network.log_bytes;
        if workload == Workload::Line5Churn {
            assert!(journaled > 0);
            assert_eq!(traced.recovery_s.len(), 1);
            assert!(traced.network_total.records_replayed > 0);
        } else {
            assert_eq!(journaled, 0, "{name}");
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let first = exact_counts(&quick_outcome(workload, 7, false));
        let again = exact_counts(&quick_outcome(workload, 7, false));
        let other = exact_counts(&quick_outcome(workload, 8, false));
        assert_eq!(first, again, "{}", workload.name());
        assert_ne!(first, other, "{}", workload.name());
    }
}

#[test]
fn whole_cycles_make_per_event_counts_independent_of_run_length() {
    let per_event = |cycles: u64| {
        let mut inputs = generate(Workload::Line5Match, 3, Scale::QUICK);
        let (harness, setup) = prepare(&inputs, false, false);
        let outcome = execute(&mut inputs, harness, setup, Budget::Cycles(cycles), 0);
        assert_eq!(outcome.measured.cycles, cycles);
        assert_eq!(outcome.measured.inconsistent_steps, 0);
        let network = outcome.measured.network;
        (
            network.messages as f64 / outcome.measured.events as f64,
            network.bytes as f64 / outcome.measured.events as f64,
        )
    };
    assert_eq!(per_event(1), per_event(3));

    // Churn registers other subscriptions in every cycle; its control bytes
    // per operation are taken over the first cycle, which never changes.
    let first_cycle_control_bytes = |cycles: u64| {
        let mut inputs = generate(Workload::Line5Churn, 3, Scale::QUICK);
        let (harness, setup) = prepare(&inputs, false, false);
        let measured = execute(&mut inputs, harness, setup, Budget::Cycles(cycles), 0).measured;
        assert!(measured.first_cycle_control_bytes > 0);
        assert!(cycles == 1 || measured.control_call_bytes > measured.first_cycle_control_bytes);
        measured.first_cycle_control_bytes
    };
    assert_eq!(first_cycle_control_bytes(1), first_cycle_control_bytes(2));
}

#[test]
fn pruning_generalises_without_changing_deliveries() {
    let pruned = quick_outcome(Workload::Line5Pruned, 42, false);
    let unpruned = quick_outcome(Workload::Line5Match, 42, false);
    let report = pruned.setup.pruning.as_ref().expect("line5_pruned prunes");
    let baseline = report.baseline.as_ref().expect("the baseline was recorded");
    // Every cycle of every batch delivered exactly what the unpruned
    // network delivered, and the oracle agrees.
    assert_eq!(pruned.measured.inconsistent_steps, 0);
    assert_eq!(pruned.verdict, unpruned.verdict);
    assert!(report.applied > 0 && report.applied * 2 <= report.plan_len);
    // Pruned ⊇ original: never less traffic, strictly smaller tables.
    let per_cycle = pruned.measured.network.messages / pruned.measured.cycles;
    assert!(per_cycle >= baseline.link_msgs);
    assert_eq!(
        unpruned.measured.network.messages / unpruned.measured.cycles,
        baseline.link_msgs
    );
    assert!((pruned.memory.remote_associations as u64) < report.unpruned_remote_associations);
    assert_eq!(
        unpruned.memory.remote_associations as u64,
        report.unpruned_remote_associations
    );
}

fn metric_names(line: &str) -> (Json, Vec<String>) {
    let result = Json::parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let names = result
        .get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(name, entry)| {
            assert!(
                entry.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(entry.get("unit").and_then(Json::as_str).is_some(), "{name}");
            name.clone()
        })
        .collect();
    (result, names)
}

#[test]
fn result_lines_carry_every_name_of_the_contract() {
    for workload in [Workload::Line5Churn, Workload::SingleAtree100k] {
        let report = run_end_to_end(workload, 42, Budget::Cycles(1), Scale::QUICK);
        let (result, names) = metric_names(&report.result_line());
        let expected: Vec<&str> = end_to_end().iter().map(|def| def.name).collect();
        assert_eq!(names, expected);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        // End-to-end metrics are never zero, on any workload.
        for def in end_to_end() {
            assert!(report.value(def.name).unwrap() > 0.0, "{}", def.name);
        }

        // Cargo's per-package scratch directory under the target directory.
        let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("contract-spans-{}.json", workload.name()));
        let report = run_per_layer(workload, 42, Budget::Cycles(2), Scale::QUICK, Some(&spans))
            .expect("the trace file is writable");
        let (_, names) = metric_names(&report.result_line());
        let expected: Vec<&str> = per_layer().iter().map(|def| def.name).collect();
        assert_eq!(names, expected);
        assert_eq!(report.failed, 0);
        let share = report.value("trace.attributed_share").unwrap();
        assert!(share > 0.5 && share <= 1.0 + 1e-9, "attributed {share}");
        assert!(report.value("trace.overhead_ratio").unwrap() > 0.0);
        assert!(report.value("broker_node.hops").unwrap() > 0.0);

        let trace = Json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
        let _ = std::fs::remove_file(&spans);
        let kept = trace.get("spans").unwrap().elements();
        assert!(!kept.is_empty());
        // Every hop names the root span that caused it.
        assert!(kept
            .iter()
            .filter(|span| span.get("name").and_then(Json::as_str) == Some("hop"))
            .all(|span| span.get("request").and_then(Json::as_f64).unwrap() > 0.0));
    }
}

/// A result file of same-seed sets in which every metric reads 100 except
/// `events_per_s` and the per-layer metrics overridden; `per_layer: None`
/// is a file made without `--trace`.
fn result_file(events_per_s: &[f64], per_layer_overrides: Option<&[(&str, f64)]>) -> Json {
    let mut workloads = Json::object();
    for workload in Workload::ALL {
        let runs: Vec<Json> = events_per_s
            .iter()
            .map(|&throughput| {
                let mut e2e = Json::object();
                for def in end_to_end() {
                    let value = if def.name == "events_per_s" {
                        throughput
                    } else {
                        100.0
                    };
                    e2e.set(def.name, value);
                }
                let mut run = Json::object().with("seed", 42u64).with("end_to_end", e2e);
                if let Some(overrides) = per_layer_overrides {
                    let mut layers = Json::object();
                    for def in per_layer() {
                        let overridden = overrides.iter().find(|(name, _)| *name == def.name);
                        layers.set(def.name, overridden.map_or(100.0, |&(_, value)| value));
                    }
                    run.set("per_layer", layers);
                }
                run
            })
            .collect();
        workloads.set(workload.name(), Json::object().with("runs", runs));
    }
    Json::object()
        .with("quick", false)
        .with("complete", true)
        .with("run_seconds", spec::run_seconds())
        .with("seeds", vec![Json::from(42u64); events_per_s.len()])
        .with("contract", spec::contract().clone())
        .with("workloads", workloads)
}

/// `file` with one top-level member replaced.
fn with_member(file: &Json, key: &str, value: impl Into<Json>) -> Json {
    let mut value = Some(value.into());
    let mut out = Json::object();
    for (k, v) in file.members() {
        match (k == key).then(|| value.take()).flatten() {
            Some(replacement) => out.set(k, replacement),
            None => out.set(k, v.clone()),
        }
    }
    out
}

#[test]
fn compare_flags_regressions_and_refuses_files_it_cannot_judge() {
    let base = result_file(&[1000.0, 1010.0, 990.0], Some(&[]));
    let same = compare(&base, &base).unwrap();
    let guarded: usize = GUARDS.iter().map(|g| g.workloads.len()).sum();
    assert_eq!(same.rows.len(), guarded);
    assert!(same.rows.iter().all(|row| row.verdict == Verdict::Ok));
    assert!(same.notes.is_empty());

    let slower = result_file(&[900.0, 905.0, 895.0], Some(&[]));
    let rows = compare(&base, &slower).unwrap().rows;
    let worse: Vec<_> = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Worse)
        .collect();
    assert_eq!(worse.len(), Workload::ALL.len());
    assert!(worse.iter().all(|row| row.metric.name == "events_per_s"));
    // The other direction is an improvement, not a regression.
    assert!(compare(&slower, &base)
        .unwrap()
        .rows
        .iter()
        .all(|row| row.verdict == Verdict::Ok));

    let noisy = result_file(&[1000.0, 1500.0, 600.0, 1300.0], Some(&[]));
    assert!(compare(
        &base,
        &with_member(&noisy, "seeds", base.get("seeds").unwrap().clone())
    )
    .unwrap()
    .rows
    .iter()
    .filter(|row| row.metric.name == "events_per_s")
    .all(|row| row.verdict == Verdict::Unresolved));

    // An exact count that moved is a regression on the workloads it is
    // guarded on, and only there.
    let chattier = result_file(
        &[1000.0, 1010.0, 990.0],
        Some(&[("network.link_msgs_per_event", 100.5)]),
    );
    let rows = compare(&base, &chattier).unwrap().rows;
    let worse: Vec<_> = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Worse)
        .map(|row| (row.workload, row.metric.name))
        .collect();
    assert_eq!(
        worse,
        [
            (Workload::Line5Match, "network.link_msgs_per_event"),
            (Workload::Line5Pruned, "network.link_msgs_per_event"),
            (Workload::Line5Forward, "network.link_msgs_per_event"),
        ]
    );

    // Without `--trace` on either side only the universal metrics are
    // judged, and the table says so.
    let untraced = compare(&base, &result_file(&[1000.0, 1010.0, 990.0], None)).unwrap();
    assert_eq!(
        untraced.rows.len(),
        Workload::ALL.len() * end_to_end().len()
    );
    assert_eq!(untraced.notes.len(), 1);

    // Other seeds are compared, with a warning.
    let other_seeds = with_member(&base, "seeds", vec![Json::from(7u64); 3]);
    assert_eq!(compare(&base, &other_seeds).unwrap().notes.len(), 1);

    for (key, value) in [
        ("quick", Json::Bool(true)),
        ("complete", Json::Bool(false)),
        ("run_seconds", Json::from(1u64)),
        ("contract", Json::object()),
        ("workloads", Json::object()),
    ] {
        let refused = with_member(&base, key, value);
        assert!(compare(&base, &refused).is_err(), "{key}");
        assert!(compare(&refused, &base).is_err(), "{key}");
    }
    assert!(compare(&Json::object(), &base).is_err());
}
