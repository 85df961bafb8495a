//! Acyclic broker topologies.

use pubsub_core::BrokerId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An acyclic, connected broker network (a tree).
///
/// The paper assumes acyclic broker connections (Section 2.1); its distributed
/// evaluation uses five brokers connected as a line. Constructors are provided
/// for lines, stars, and balanced trees, plus arbitrary edge lists which are
/// validated to be connected and acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Adjacency lists, keyed by broker id (sorted for determinism).
    adjacency: BTreeMap<BrokerId, BTreeSet<BrokerId>>,
}

impl Topology {
    /// A single broker with no links (the centralized setting).
    pub fn single() -> Self {
        let mut adjacency = BTreeMap::new();
        adjacency.insert(BrokerId::from_raw(0), BTreeSet::new());
        Self { adjacency }
    }

    /// `n` brokers connected as a line: `0 — 1 — … — n−1`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "a topology needs at least one broker");
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
        Self::from_edges(n, &edges)
    }

    /// `n` brokers connected as a star with broker 0 in the centre.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn star(n: usize) -> Self {
        assert!(n > 0, "a topology needs at least one broker");
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        Self::from_edges(n, &edges)
    }

    /// A balanced tree with the given branching factor and number of brokers,
    /// numbered in breadth-first order (broker 0 is the root).
    ///
    /// # Panics
    /// Panics if `n == 0` or `fanout == 0`.
    pub fn balanced_tree(n: usize, fanout: usize) -> Self {
        assert!(n > 0, "a topology needs at least one broker");
        assert!(fanout > 0, "fanout must be positive");
        let edges: Vec<(u32, u32)> = (1..n as u32)
            .map(|i| (((i as usize - 1) / fanout) as u32, i))
            .collect();
        Self::from_edges(n, &edges)
    }

    /// Builds a topology over brokers `0..n` from an explicit edge list.
    ///
    /// # Panics
    /// Panics if the edges reference brokers outside `0..n`, if the graph is
    /// not connected, or if it contains a cycle.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(n > 0, "a topology needs at least one broker");
        let mut adjacency: BTreeMap<BrokerId, BTreeSet<BrokerId>> = (0..n as u32)
            .map(|i| (BrokerId::from_raw(i), BTreeSet::new()))
            .collect();
        for (a, b) in edges {
            assert!(
                (*a as usize) < n && (*b as usize) < n,
                "edge ({a}, {b}) references an unknown broker"
            );
            assert_ne!(a, b, "self-loops are not allowed");
            adjacency
                .get_mut(&BrokerId::from_raw(*a))
                .unwrap()
                .insert(BrokerId::from_raw(*b));
            adjacency
                .get_mut(&BrokerId::from_raw(*b))
                .unwrap()
                .insert(BrokerId::from_raw(*a));
        }
        let topology = Self { adjacency };
        assert!(topology.is_connected(), "broker topology must be connected");
        assert!(
            edges.len() == n - 1,
            "an acyclic connected topology over {n} brokers needs exactly {} edges, got {}",
            n - 1,
            edges.len()
        );
        topology
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the topology has no brokers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Iterates over the broker ids in ascending order.
    pub fn broker_ids(&self) -> impl Iterator<Item = BrokerId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Returns `true` if the broker id belongs to this topology.
    pub fn contains(&self, broker: BrokerId) -> bool {
        self.adjacency.contains_key(&broker)
    }

    /// The neighbors of a broker (empty for unknown brokers).
    pub fn neighbors(&self, broker: BrokerId) -> Vec<BrokerId> {
        self.adjacency
            .get(&broker)
            .map(|n| n.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All undirected links, each reported once with the smaller id first.
    pub fn links(&self) -> Vec<(BrokerId, BrokerId)> {
        let mut links = Vec::new();
        for (a, neighbors) in &self.adjacency {
            for b in neighbors {
                if a < b {
                    links.push((*a, *b));
                }
            }
        }
        links
    }

    /// The unique path between two brokers (inclusive of both endpoints).
    /// Returns `None` if either broker is unknown.
    pub fn path(&self, from: BrokerId, to: BrokerId) -> Option<Vec<BrokerId>> {
        if !self.contains(from) || !self.contains(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        // BFS over the tree, remembering predecessors.
        let mut predecessor: BTreeMap<BrokerId, BrokerId> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        let mut visited: BTreeSet<BrokerId> = BTreeSet::from([from]);
        while let Some(current) = queue.pop_front() {
            for next in self.neighbors(current) {
                if visited.insert(next) {
                    predecessor.insert(next, current);
                    if next == to {
                        let mut path = vec![to];
                        let mut cursor = to;
                        while let Some(prev) = predecessor.get(&cursor) {
                            path.push(*prev);
                            cursor = *prev;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// The number of links on the path between two brokers.
    pub fn distance(&self, from: BrokerId, to: BrokerId) -> Option<usize> {
        self.path(from, to).map(|p| p.len() - 1)
    }

    /// The connected components that remain when one broker crashes, each
    /// sorted ascending, ordered by their smallest member. In a tree,
    /// removing a broker of degree `d` leaves exactly `d` components — the
    /// partitions an outage splits the network into. Unknown brokers yield
    /// the whole topology as one component.
    pub fn components_without(&self, broker: BrokerId) -> Vec<Vec<BrokerId>> {
        let mut components = Vec::new();
        let mut visited: BTreeSet<BrokerId> = BTreeSet::from([broker]);
        for start in self.broker_ids() {
            if !visited.insert(start) {
                continue;
            }
            let mut component = vec![start];
            let mut queue = VecDeque::from([start]);
            while let Some(current) = queue.pop_front() {
                for next in self.neighbors(current) {
                    if next != broker && visited.insert(next) {
                        component.push(next);
                        queue.push_back(next);
                    }
                }
            }
            component.sort();
            components.push(component);
        }
        components
    }

    fn is_connected(&self) -> bool {
        let Some(start) = self.adjacency.keys().next().copied() else {
            return false;
        };
        let mut visited: BTreeSet<BrokerId> = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(current) = queue.pop_front() {
            for next in self.neighbors(current) {
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        visited.len() == self.adjacency.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BrokerId {
        BrokerId::from_raw(i)
    }

    #[test]
    fn single_broker_topology() {
        let t = Topology::single();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.contains(b(0)));
        assert!(t.neighbors(b(0)).is_empty());
        assert!(t.links().is_empty());
        assert_eq!(t.path(b(0), b(0)), Some(vec![b(0)]));
    }

    #[test]
    fn line_topology_structure() {
        let t = Topology::line(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.neighbors(b(0)), vec![b(1)]);
        assert_eq!(t.neighbors(b(2)), vec![b(1), b(3)]);
        assert_eq!(t.neighbors(b(4)), vec![b(3)]);
        assert_eq!(t.links().len(), 4);
        assert_eq!(
            t.path(b(0), b(4)).unwrap(),
            vec![b(0), b(1), b(2), b(3), b(4)]
        );
        assert_eq!(t.distance(b(0), b(4)), Some(4));
        assert_eq!(t.distance(b(2), b(2)), Some(0));
    }

    #[test]
    fn star_topology_structure() {
        let t = Topology::star(6);
        assert_eq!(t.len(), 6);
        assert_eq!(t.neighbors(b(0)).len(), 5);
        assert_eq!(t.neighbors(b(3)), vec![b(0)]);
        assert_eq!(t.distance(b(1), b(5)), Some(2));
    }

    #[test]
    fn balanced_tree_structure() {
        let t = Topology::balanced_tree(7, 2);
        assert_eq!(t.len(), 7);
        // Broker 0 is the root with children 1 and 2.
        assert_eq!(t.neighbors(b(0)), vec![b(1), b(2)]);
        assert_eq!(t.neighbors(b(1)), vec![b(0), b(3), b(4)]);
        assert_eq!(t.distance(b(3), b(6)), Some(4));
    }

    #[test]
    fn path_to_unknown_broker_is_none() {
        let t = Topology::line(3);
        assert!(t.path(b(0), b(9)).is_none());
        assert!(t.path(b(9), b(0)).is_none());
        assert!(t.neighbors(b(9)).is_empty());
        assert!(!t.contains(b(9)));
    }

    #[test]
    fn broker_ids_are_sorted() {
        let t = Topology::line(4);
        let ids: Vec<BrokerId> = t.broker_ids().collect();
        assert_eq!(ids, vec![b(0), b(1), b(2), b(3)]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_topology_is_rejected() {
        let _ = Topology::from_edges(4, &[(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn cyclic_topology_is_rejected() {
        let _ = Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "at least one broker")]
    fn empty_topology_is_rejected() {
        let _ = Topology::line(0);
    }

    #[test]
    fn components_without_splits_the_tree_at_the_removed_broker() {
        // line 0-1-2-3-4: removing broker 2 leaves {0,1} and {3,4}.
        let line = Topology::line(5);
        assert_eq!(
            line.components_without(b(2)),
            vec![vec![b(0), b(1)], vec![b(3), b(4)]]
        );
        // Removing a leaf leaves one component.
        assert_eq!(
            line.components_without(b(0)),
            vec![vec![b(1), b(2), b(3), b(4)]]
        );
        // balanced_tree(7, 2): removing the root (degree 2) gives the two
        // subtrees; removing internal broker 1 gives {root side} + 2 leaves.
        let tree = Topology::balanced_tree(7, 2);
        assert_eq!(
            tree.components_without(b(0)),
            vec![vec![b(1), b(3), b(4)], vec![b(2), b(5), b(6)]]
        );
        assert_eq!(
            tree.components_without(b(1)),
            vec![vec![b(0), b(2), b(5), b(6)], vec![b(3)], vec![b(4)]]
        );
        // A single broker: removing it leaves nothing.
        assert!(Topology::single().components_without(b(0)).is_empty());
    }
}
