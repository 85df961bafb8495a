//! Optimization dimensions and their tie-break orders.

use std::fmt;

/// One of the three heuristic quantities a pruning is scored by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// `Δ≈sel` — estimated selectivity degradation (smaller is better).
    Selectivity,
    /// `Δ≈mem` — estimated memory improvement in bytes (larger is better).
    Memory,
    /// `Δ≈eff` — estimated throughput improvement, the change of the counting
    /// threshold `pmin` (larger is better).
    Throughput,
}

impl fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicKind::Selectivity => write!(f, "Δ≈sel"),
            HeuristicKind::Memory => write!(f, "Δ≈mem"),
            HeuristicKind::Throughput => write!(f, "Δ≈eff"),
        }
    }
}

/// The dimension a [`Pruner`](crate::Pruner) optimizes for.
///
/// The dimension determines which heuristic is consulted first when choosing
/// the next pruning, and in which order the remaining heuristics break ties
/// (Section 3.4 of the paper):
///
/// * network load: `Δ≈sel`, then `Δ≈eff`, then `Δ≈mem`;
/// * memory usage: `Δ≈mem`, then `Δ≈sel`, then `Δ≈eff`;
/// * throughput: `Δ≈eff`, then `Δ≈sel`, then `Δ≈mem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Minimize the number of additionally routed events.
    NetworkLoad,
    /// Maximize the reduction of routing-table sizes.
    Memory,
    /// Maximize filter efficiency (system throughput).
    Throughput,
}

impl Dimension {
    /// All dimensions, in the order the paper discusses them.
    pub const ALL: [Dimension; 3] = [
        Dimension::NetworkLoad,
        Dimension::Memory,
        Dimension::Throughput,
    ];

    /// The order in which the heuristics are consulted for this dimension:
    /// the first entry is the primary criterion, later entries break ties.
    pub fn heuristic_order(self) -> [HeuristicKind; 3] {
        match self {
            Dimension::NetworkLoad => [
                HeuristicKind::Selectivity,
                HeuristicKind::Throughput,
                HeuristicKind::Memory,
            ],
            Dimension::Memory => [
                HeuristicKind::Memory,
                HeuristicKind::Selectivity,
                HeuristicKind::Throughput,
            ],
            Dimension::Throughput => [
                HeuristicKind::Throughput,
                HeuristicKind::Selectivity,
                HeuristicKind::Memory,
            ],
        }
    }

    /// Short label used in experiment output, matching the curve subscripts
    /// of the paper's Figure 1 (`sel`, `mem`, `eff`).
    pub fn label(self) -> &'static str {
        match self {
            Dimension::NetworkLoad => "sel",
            Dimension::Memory => "mem",
            Dimension::Throughput => "eff",
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dimension::NetworkLoad => write!(f, "network-load"),
            Dimension::Memory => write!(f, "memory"),
            Dimension::Throughput => write!(f, "throughput"),
        }
    }
}

impl Dimension {
    /// The primary heuristic of this dimension (first entry of
    /// [`heuristic_order`](Self::heuristic_order)).
    pub fn primary(self) -> HeuristicKind {
        self.heuristic_order()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_orders_match_the_paper() {
        assert_eq!(
            Dimension::NetworkLoad.heuristic_order(),
            [
                HeuristicKind::Selectivity,
                HeuristicKind::Throughput,
                HeuristicKind::Memory
            ]
        );
        assert_eq!(
            Dimension::Memory.heuristic_order(),
            [
                HeuristicKind::Memory,
                HeuristicKind::Selectivity,
                HeuristicKind::Throughput
            ]
        );
        assert_eq!(
            Dimension::Throughput.heuristic_order(),
            [
                HeuristicKind::Throughput,
                HeuristicKind::Selectivity,
                HeuristicKind::Memory
            ]
        );
    }

    #[test]
    fn every_order_contains_all_heuristics() {
        for dim in Dimension::ALL {
            let order = dim.heuristic_order();
            let mut kinds: Vec<HeuristicKind> = order.to_vec();
            kinds.sort_by_key(|k| format!("{k:?}"));
            kinds.dedup();
            assert_eq!(kinds.len(), 3, "{dim} repeats a heuristic");
            assert_eq!(order[0], dim.primary(), "primary mismatch for {dim}");
        }
    }

    #[test]
    fn labels_match_figure_subscripts() {
        assert_eq!(Dimension::NetworkLoad.label(), "sel");
        assert_eq!(Dimension::Memory.label(), "mem");
        assert_eq!(Dimension::Throughput.label(), "eff");
    }

    #[test]
    fn display_names() {
        assert_eq!(Dimension::NetworkLoad.to_string(), "network-load");
        assert_eq!(HeuristicKind::Memory.to_string(), "Δ≈mem");
    }
}
