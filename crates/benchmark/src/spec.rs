//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root. The file is compiled in and is the only place where a workload's
//! reason, a metric's unit and direction, an end-to-end bound or the run
//! length is written down; this module parses it once and hands out typed
//! views. What each metric *means* is in `report.rs`, where it is computed.

use crate::json::Json;
use std::sync::OnceLock;

/// `BENCHMARK.json`, as checked in. Being part of the build, a malformed
/// file is a bug in this repository that the first test or run hits, so the
/// accessors below panic on one instead of returning errors.
const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));

/// The contract as parsed JSON (embedded in every result file).
pub fn contract() -> &'static Json {
    static CONTRACT: OnceLock<Json> = OnceLock::new();
    CONTRACT.get_or_init(|| Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON"))
}

/// The five workloads. Names are final: later changes are compared per name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's distributed setting, unpruned; matching dominates.
    Line5Match,
    /// Identical inputs after half of each broker's pruning plan is applied.
    Line5Pruned,
    /// Smallest-frame forwarding: every event crosses every link.
    Line5Forward,
    /// Subscribe/unsubscribe churn beside publishes, then a cluster restart.
    Line5Churn,
    /// The centralized setting at the population the A-Tree exists for.
    SingleAtree100k,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Line5Match,
        Workload::Line5Pruned,
        Workload::Line5Forward,
        Workload::Line5Churn,
        Workload::SingleAtree100k,
    ];

    /// The workload's name on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Line5Match => "line5_match",
            Workload::Line5Pruned => "line5_pruned",
            Workload::Line5Forward => "line5_forward",
            Workload::Line5Churn => "line5_churn",
            Workload::SingleAtree100k => "single_atree_100k",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layer it stresses and which it
    /// bypasses.
    pub fn why(self) -> &'static str {
        list("workloads")
            .iter()
            .find(|entry| entry.get("name").and_then(Json::as_str) == Some(self.name()))
            .and_then(|entry| entry.get("why"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks workload {}", self.name()))
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes, work counts).
    Lower,
    /// Larger values are better (throughput, savings, useful ratios).
    Higher,
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Unique name.
    pub name: &'static str,
    /// Unit, as printed next to every value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the driver lets the metric get worse before it rejects a change.
    pub bound: Option<f64>,
}

fn list(key: &str) -> &'static [Json] {
    contract().get(key).map(Json::elements).unwrap_or_default()
}

fn metric_defs(key: &str) -> Vec<MetricDef> {
    let text = |entry: &'static Json, field: &str| {
        entry
            .get(field)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric lacks {field:?}"))
    };
    list(key)
        .iter()
        .map(|entry| MetricDef {
            name: text(entry, "name"),
            unit: text(entry, "unit"),
            better: match text(entry, "better") {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better is {other:?}"),
            },
            bound: entry.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them, from the untraced run only. Their bounds are
/// what the driver applies to medians over ten *differently seeded* runs,
/// so they cover input variance as well as host noise (the crate README
/// records the spreads they come from); `compare`, which sees the same
/// seeds on both sides, applies tighter ones of its own.
pub fn end_to_end() -> &'static [MetricDef] {
    static LIST: OnceLock<Vec<MetricDef>> = OnceLock::new();
    LIST.get_or_init(|| metric_defs("end_to_end"))
}

/// Per-layer metrics, one group per module, from the traced invocation.
/// A metric that does not apply to a workload reads 0 there. The first
/// groups (`network.*`, `control.*`, `durability.recovery_s`) are
/// user-visible but workload-specific — zero on a single broker or on a
/// publish-only workload — so the contract cannot bound them; `compare`
/// does, on the workloads they apply to.
pub fn per_layer() -> &'static [MetricDef] {
    static LIST: OnceLock<Vec<MetricDef>> = OnceLock::new();
    LIST.get_or_init(|| metric_defs("per_layer"))
}

/// Seconds one run measures (`run_seconds` of the contract).
pub fn run_seconds() -> u64 {
    contract()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds") as u64
}

/// Finds a metric of either list by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|def| def.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` for.
    #[test]
    fn the_contract_limits_hold() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let keys: Vec<&str> = contract().members().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!((1..=60).contains(&run_seconds()));

        // The file's workloads are exactly the ones this crate runs.
        let in_file: Vec<_> = list("workloads")
            .iter()
            .map(|entry| entry.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let in_crate: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(in_file, in_crate);

        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(names.insert(w.name()));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for def in end_to_end().iter().chain(per_layer()) {
            assert!(name_ok(def.name), "{}", def.name);
            assert!(names.insert(def.name), "{} is used twice", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                def.name,
                def.unit
            );
        }
        for def in end_to_end() {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        assert!(per_layer().iter().all(|def| def.bound.is_none()));
        // Set-up time is mandatory, in seconds, lower is better, and has
        // the largest bound.
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(end_to_end().iter().all(|def| def.bound <= setup.bound));
    }
}
