//! Boolean subscription trees stored as one node array in preorder.
//!
//! A [`SubscriptionTree`] stores the Boolean filter expression of a
//! subscription as a flat array of [`Node`]s. Compared to the recursive
//! [`Expr`](crate::Expr) form, the array gives every subtree a stable
//! [`NodeId`], which the pruning machinery needs to talk about *which*
//! subtree to remove, how many bytes it occupies, and whether its removal
//! generalizes the subscription.
//!
//! # Layout
//!
//! The nodes are stored in **preorder**: the root is node 0, and every node
//! is followed by its whole subtree. A node records its parent and `end`,
//! the index just past its subtree, so
//!
//! * the subtree of node `n` is the index range `[n, end)`
//!   ([`SubscriptionTree::subtree_range`]);
//! * the first child of `n` (if any) is `n + 1`, and the child after a child
//!   `c` starts at `c`'s `end` ([`SubscriptionTree::children`]).
//!
//! A tree is therefore one allocation, and evaluating it reads that array
//! front to back: a short-circuit skips a subtree by jumping to its `end`.
//! There is no per-node child vector to chase, which matters because every
//! matching path — the counting engine's stage 2, `NaiveEngine`,
//! `Subscription::matches` and the routing table's witnesses — evaluates
//! trees per event. Subtree sizes, leaf counts and descendant tests are
//! range scans. The order is also the wire format's, so a tree is encoded
//! by writing its nodes in order.

use crate::{AttrId, CoreError, EventMessage, Expr, NodeId, Predicate, Value};
use std::fmt;
use std::ops::Range;

/// The kind of a tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Conjunction of the node's children.
    And,
    /// Disjunction of the node's children.
    Or,
    /// Negation of the node's single child.
    Not,
    /// A predicate leaf.
    Predicate(Predicate),
}

impl NodeKind {
    /// Returns `true` if this node is a predicate leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, NodeKind::Predicate(_))
    }
}

/// `Node::parent` of the root.
const NO_PARENT: u32 = u32::MAX;

/// A node of a [`SubscriptionTree`]; its children are found through
/// [`SubscriptionTree::children`].
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    kind: NodeKind,
    /// Index of the parent, or [`NO_PARENT`].
    parent: u32,
    /// Index just past this node's subtree.
    end: u32,
}

impl Node {
    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The node's parent, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent != NO_PARENT).then_some(NodeId(self.parent))
    }
}

/// The `u32` form of a node index (trees are far below `u32::MAX` nodes).
fn index_u32(index: usize) -> u32 {
    NodeId::from_index(index).0
}

/// Appends a node whose subtree is still to come; [`seal`] sets its `end`
/// once the subtree is in.
fn push(nodes: &mut Vec<Node>, kind: NodeKind, parent: u32) -> usize {
    nodes.push(Node {
        kind,
        parent,
        end: 0,
    });
    nodes.len() - 1
}

fn seal(nodes: &mut [Node], at: usize) {
    nodes[at].end = index_u32(nodes.len());
}

/// Why a requested pruning was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PruneError {
    /// The node id does not exist in this tree.
    UnknownNode(NodeId),
    /// The root of a subscription cannot be pruned away.
    CannotPruneRoot,
    /// Removing this node would *specialize* (not generalize) the
    /// subscription, which would break routing correctness.
    WouldSpecialize(NodeId),
    /// The node's parent would be left without children.
    ParentWouldBeEmpty(NodeId),
}

impl fmt::Display for PruneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneError::UnknownNode(n) => write!(f, "node {n} does not exist in this tree"),
            PruneError::CannotPruneRoot => write!(f, "the subscription root cannot be pruned"),
            PruneError::WouldSpecialize(n) => {
                write!(f, "removing node {n} would specialize the subscription")
            }
            PruneError::ParentWouldBeEmpty(n) => {
                write!(f, "removing node {n} would leave its parent childless")
            }
        }
    }
}

impl std::error::Error for PruneError {}

impl From<PruneError> for CoreError {
    fn from(e: PruneError) -> Self {
        CoreError::InvalidPrune(e.to_string())
    }
}

/// Summary statistics of a subscription tree, used by heuristics and metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Total number of nodes (internal and leaves).
    pub node_count: usize,
    /// Number of predicate leaves.
    pub predicate_count: usize,
    /// Depth of the tree (a single predicate has depth 1).
    pub depth: usize,
    /// Minimum number of fulfilled predicates that can fulfil the tree
    /// (the `pmin` quantity of the paper's throughput heuristic).
    pub pmin: usize,
    /// Estimated memory footprint of the tree in bytes (`mem≈`).
    pub size_bytes: usize,
}

/// An arbitrary Boolean subscription filter stored as one array of nodes in
/// preorder: each node is followed by its subtree and records the index
/// just past it, so a subtree is an index range
/// ([`subtree_range`](Self::subtree_range)) and evaluation reads the array
/// front to back.
///
/// Invariants maintained by every constructor and by [`prune`](Self::prune):
///
/// * node 0 is the root, the only node without a parent, and every node is
///   followed by its subtree;
/// * AND/OR nodes have at least two children (single-child nodes are
///   collapsed), NOT nodes have exactly one child;
/// * leaves are predicates and have no children.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionTree {
    nodes: Vec<Node>,
}

impl SubscriptionTree {
    /// Builds a tree from a recursive expression.
    ///
    /// Single-child AND/OR nodes in the expression are collapsed so that the
    /// tree upholds the structural invariants documented on the type.
    ///
    /// # Panics
    /// Panics if the expression is structurally invalid (an AND/OR node with
    /// zero children); use [`Expr::is_valid`] to check untrusted input first.
    pub fn from_expr(expr: &Expr) -> Self {
        assert!(expr.is_valid(), "expression is structurally invalid");
        let mut nodes = Vec::with_capacity(expr.node_count());
        Self::build_node(expr, NO_PARENT, &mut nodes);
        Self { nodes }
    }

    /// Builds a tree consisting of a single predicate.
    pub fn from_predicate(predicate: Predicate) -> Self {
        Self::from_expr(&Expr::Pred(predicate))
    }

    /// Appends `expr` in preorder below `parent`.
    fn build_node(expr: &Expr, parent: u32, nodes: &mut Vec<Node>) {
        let (kind, children) = match expr {
            Expr::And(children) | Expr::Or(children) if children.len() == 1 => {
                // Collapse single-child AND/OR.
                return Self::build_node(&children[0], parent, nodes);
            }
            Expr::Pred(p) => (NodeKind::Predicate(p.clone()), &[][..]),
            Expr::And(children) => (NodeKind::And, &children[..]),
            Expr::Or(children) => (NodeKind::Or, &children[..]),
            Expr::Not(child) => (NodeKind::Not, std::slice::from_ref(&**child)),
        };
        let at = push(nodes, kind, parent);
        for child in children {
            Self::build_node(child, index_u32(at), nodes);
        }
        seal(nodes, at);
    }

    /// Converts the tree back into a recursive expression.
    pub fn to_expr(&self) -> Expr {
        self.subtree_to_expr(self.root())
    }

    fn subtree_to_expr(&self, node: NodeId) -> Expr {
        let children = || {
            self.children(node)
                .map(|c| self.subtree_to_expr(c))
                .collect()
        };
        match &self.nodes[node.index()].kind {
            NodeKind::Predicate(p) => Expr::Pred(p.clone()),
            NodeKind::Not => Expr::not(self.subtree_to_expr(NodeId(node.0 + 1))),
            NodeKind::And => Expr::And(children()),
            NodeKind::Or => Expr::Or(children()),
        }
    }

    /// The root node id: always node 0.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Returns the node with the given id, or `None` if it does not exist.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// All nodes in preorder; the node at index `i` is `NodeId(i)`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The children of `node`, in order (none for a leaf or an unknown
    /// node): the first one right after `node`, each next one right after
    /// the previous one's subtree.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.nodes.get(node.index()).map_or(0, |n| n.end as usize);
        let mut next = node.index() + 1;
        std::iter::from_fn(move || {
            let child = next;
            next = self.nodes.get(child).filter(|_| child < end)?.end as usize;
            Some(NodeId(child as u32))
        })
    }

    /// The indices of the subtree rooted at `node`: `node` itself and all
    /// its descendants, contiguous in preorder. Empty for an unknown node.
    pub fn subtree_range(&self, node: NodeId) -> Range<usize> {
        match self.nodes.get(node.index()) {
            Some(n) => node.index()..n.end as usize,
            None => 0..0,
        }
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of predicate leaves.
    pub fn predicate_count(&self) -> usize {
        self.subtree_predicate_count(self.root())
    }

    /// Returns `true` if the tree consists of a single predicate leaf.
    pub fn is_single_predicate(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Iterates over all node ids in preorder.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over all predicate leaves as `(node id, predicate)` pairs.
    pub fn predicates(&self) -> impl Iterator<Item = (NodeId, &Predicate)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.kind {
                NodeKind::Predicate(p) => Some((NodeId::from_index(i), p)),
                _ => None,
            })
    }

    /// Depth of the tree (a single predicate has depth 1).
    pub fn depth(&self) -> usize {
        self.depth_of(self.root())
    }

    fn depth_of(&self, node: NodeId) -> usize {
        1 + self
            .children(node)
            .map(|c| self.depth_of(c))
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the tree against an event message.
    pub fn evaluate(&self, event: &EventMessage) -> bool {
        self.evaluate_pairs(event.resolved_pairs())
    }

    /// Evaluates the tree against one event's resolved `(AttrId, Value)`
    /// pairs — the form a batch stores (`EventBatch::resolved_pairs`), so a
    /// batch event is matched without being materialized as a message.
    pub fn evaluate_pairs(&self, pairs: &[(AttrId, Value)]) -> bool {
        self.evaluate_leaves(&mut |_, p| {
            crate::event::find_value(pairs, p.attr_id()).is_some_and(|v| p.evaluate_value(v))
        })
    }

    /// Evaluates the tree using an externally supplied truth assignment for
    /// the predicate leaves. The matching engine uses this to evaluate
    /// candidates against its per-event view of the event, with the leaves
    /// its index already reported taken as true.
    pub fn evaluate_leaves(&self, leaf_truth: &mut impl FnMut(NodeId, &Predicate) -> bool) -> bool {
        self.evaluate_node(0, leaf_truth)
    }

    fn evaluate_node(
        &self,
        at: usize,
        leaf_truth: &mut impl FnMut(NodeId, &Predicate) -> bool,
    ) -> bool {
        let node = &self.nodes[at];
        let all = match &node.kind {
            NodeKind::Predicate(p) => return leaf_truth(NodeId(at as u32), p),
            NodeKind::Not => return !self.evaluate_node(at + 1, leaf_truth),
            NodeKind::And => true,
            NodeKind::Or => false,
        };
        // An AND is decided by its first false child, an OR by its first
        // true one; the next child starts where the previous subtree ends.
        let mut child = at + 1;
        while child < node.end as usize {
            if self.evaluate_node(child, leaf_truth) != all {
                return !all;
            }
            child = self.nodes[child].end as usize;
        }
        all
    }

    /// The minimum number of fulfilled predicates that can fulfil the tree.
    ///
    /// This is the `pmin` quantity used by the counting matcher of
    /// Bittner & Hinze \[2\] and by the throughput heuristic `Δ≈eff`:
    ///
    /// * a predicate leaf requires 1 fulfilled predicate;
    /// * an AND requires the sum over its children;
    /// * an OR requires the minimum over its children;
    /// * a NOT can be fulfilled with 0 fulfilled predicates (its child being
    ///   unfulfilled is sufficient), so it contributes 0.
    pub fn pmin(&self) -> usize {
        self.pmin_of(self.root())
    }

    fn pmin_of(&self, node: NodeId) -> usize {
        let children = self.children(node).map(|c| self.pmin_of(c));
        match &self.nodes[node.index()].kind {
            NodeKind::Predicate(_) => 1,
            NodeKind::And => children.sum(),
            NodeKind::Or => children.min().unwrap_or(0),
            NodeKind::Not => 0,
        }
    }

    /// Estimated memory footprint of the whole tree in bytes (`mem≈`).
    pub fn size_bytes(&self) -> usize {
        self.subtree_size_bytes(self.root())
    }

    /// Estimated memory footprint of the subtree rooted at `node` in bytes:
    /// a fixed overhead per internal node and per leaf, plus each leaf's
    /// predicate. The paper's `mem≈` model, independent of how the tree is
    /// laid out in memory.
    ///
    /// Returns 0 for unknown nodes.
    pub fn subtree_size_bytes(&self, node: NodeId) -> usize {
        const INTERNAL_NODE_OVERHEAD: usize = 24;
        const LEAF_NODE_OVERHEAD: usize = 16;
        self.subtree_nodes(node)
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Predicate(p) => LEAF_NODE_OVERHEAD + p.size_bytes(),
                _ => INTERNAL_NODE_OVERHEAD,
            })
            .sum()
    }

    /// Number of predicate leaves inside the subtree rooted at `node`.
    pub fn subtree_predicate_count(&self, node: NodeId) -> usize {
        self.subtree_nodes(node)
            .iter()
            .filter(|n| n.kind.is_leaf())
            .count()
    }

    fn subtree_nodes(&self, node: NodeId) -> &[Node] {
        &self.nodes[self.subtree_range(node)]
    }

    /// Summary statistics of this tree.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            node_count: self.node_count(),
            predicate_count: self.predicate_count(),
            depth: self.depth(),
            pmin: self.pmin(),
            size_bytes: self.size_bytes(),
        }
    }

    /// Negation parity of a node: `true` if the node lies below an odd number
    /// of NOT nodes. Removal semantics flip under odd parity.
    pub fn negation_parity(&self, node: NodeId) -> bool {
        let mut parity = false;
        let mut current = self.nodes[node.index()].parent();
        while let Some(p) = current {
            let n = &self.nodes[p.index()];
            if matches!(n.kind, NodeKind::Not) {
                parity = !parity;
            }
            current = n.parent();
        }
        parity
    }

    /// Checks whether removing the subtree rooted at `node` is a *valid
    /// pruning*, i.e. whether the resulting tree is fulfilled by a superset of
    /// the events fulfilling the current tree (generalization), and the tree
    /// stays structurally valid.
    ///
    /// A removal generalizes the subscription exactly when the removed node is
    /// a child of an AND node under even negation parity, or a child of an OR
    /// node under odd negation parity, and the parent keeps at least one other
    /// child.
    pub fn validate_prune(&self, node: NodeId) -> Result<(), PruneError> {
        let n = self
            .nodes
            .get(node.index())
            .ok_or(PruneError::UnknownNode(node))?;
        let parent_id = n.parent().ok_or(PruneError::CannotPruneRoot)?;
        if self.children(parent_id).nth(1).is_none() {
            return Err(PruneError::ParentWouldBeEmpty(node));
        }
        let parity = self.negation_parity(parent_id);
        let generalizes = match self.nodes[parent_id.index()].kind {
            NodeKind::And => !parity,
            NodeKind::Or => parity,
            // The only child of a NOT cannot be removed without leaving the
            // NOT childless.
            NodeKind::Not | NodeKind::Predicate(_) => false,
        };
        if generalizes {
            Ok(())
        } else {
            Err(PruneError::WouldSpecialize(node))
        }
    }

    /// Returns `true` if removing `node` is a valid pruning (see
    /// [`validate_prune`](Self::validate_prune)).
    pub fn is_valid_prune(&self, node: NodeId) -> bool {
        self.validate_prune(node).is_ok()
    }

    /// Enumerates all nodes whose removal is a valid pruning, in preorder.
    pub fn generalizing_removals(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| self.is_valid_prune(*id))
            .collect()
    }

    /// Removes the subtree rooted at `node` and returns the resulting,
    /// freshly compacted tree. The original tree is left untouched.
    ///
    /// Node ids of the returned tree are *not* related to node ids of `self`.
    pub fn prune(&self, node: NodeId) -> Result<SubscriptionTree, PruneError> {
        self.validate_prune(node)?;
        let mut nodes = Vec::with_capacity(self.nodes.len());
        self.copy_without(self.root(), node, NO_PARENT, &mut nodes);
        Ok(Self { nodes })
    }

    /// Appends the subtree of `node` without the subtree of `removed`, in
    /// preorder below `parent`. An AND/OR left with one child collapses into
    /// it, as [`from_expr`](Self::from_expr) collapses one in an expression.
    fn copy_without(&self, node: NodeId, removed: NodeId, parent: u32, out: &mut Vec<Node>) {
        let kept = || self.children(node).filter(|&c| c != removed);
        let kind = &self.nodes[node.index()].kind;
        if matches!(kind, NodeKind::And | NodeKind::Or) && kept().nth(1).is_none() {
            if let Some(only) = kept().next() {
                return self.copy_without(only, removed, parent, out);
            }
        }
        let at = push(out, kind.clone(), parent);
        for child in kept() {
            self.copy_without(child, removed, index_u32(at), out);
        }
        seal(out, at);
    }

    /// Simulates a pruning without materializing the tree: returns the
    /// [`TreeStats`] the tree would have after removing `node`.
    ///
    /// This is what the heuristics use to score candidate prunings cheaply.
    pub fn stats_after_prune(&self, node: NodeId) -> Result<TreeStats, PruneError> {
        // Building the pruned tree is O(size of tree); trees are small
        // (tens of nodes), so this stays cheap while remaining exact.
        Ok(self.prune(node)?.stats())
    }
}

impl fmt::Display for SubscriptionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Operator;

    /// (category = books AND price <= 20 AND bids >= 2) OR (seller = "acme" AND rating >= 4)
    fn sample_expr() -> Expr {
        Expr::or(vec![
            Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
                Expr::ge("bids", 2i64),
            ]),
            Expr::and(vec![Expr::eq("seller", "acme"), Expr::ge("rating", 4i64)]),
        ])
    }

    fn sample_tree() -> SubscriptionTree {
        SubscriptionTree::from_expr(&sample_expr())
    }

    fn matching_event() -> EventMessage {
        EventMessage::builder()
            .attr("category", "books")
            .attr("price", 10i64)
            .attr("bids", 5i64)
            .attr("seller", "other")
            .attr("rating", 3i64)
            .build()
    }

    #[test]
    fn construction_counts() {
        let t = sample_tree();
        assert_eq!(t.predicate_count(), 5);
        assert_eq!(t.node_count(), 8); // or + 2 and + 5 leaves
        assert_eq!(t.depth(), 3);
        assert!(!t.is_single_predicate());
        assert_eq!(t.predicates().count(), 5);
    }

    #[test]
    fn single_child_and_or_collapse_on_construction() {
        let e = Expr::And(vec![Expr::Or(vec![Expr::eq("a", 1i64)])]);
        let t = SubscriptionTree::from_expr(&e);
        assert_eq!(t.node_count(), 1);
        assert!(t.is_single_predicate());
    }

    #[test]
    fn evaluation_matches_expr_evaluation() {
        let e = sample_expr();
        let t = sample_tree();
        let ev = matching_event();
        assert_eq!(t.evaluate(&ev), e.evaluate(&ev));
        assert!(t.evaluate(&ev));

        let non_matching = EventMessage::builder()
            .attr("category", "music")
            .attr("price", 10i64)
            .build();
        assert!(!t.evaluate(&non_matching));
    }

    #[test]
    fn evaluate_leaves_uses_supplied_truth() {
        let t = sample_tree();
        // All leaves true -> matches.
        assert!(t.evaluate_leaves(&mut |_, _| true));
        // All leaves false -> does not match.
        assert!(!t.evaluate_leaves(&mut |_, _| false));
        // Only the "seller"/"rating" branch true -> matches via OR.
        assert!(t.evaluate_leaves(&mut |_, p| {
            p.attribute() == "seller" || p.attribute() == "rating"
        }));
    }

    #[test]
    fn pmin_computation() {
        // OR(AND(3 preds), AND(2 preds)) -> min(3, 2) = 2
        assert_eq!(sample_tree().pmin(), 2);
        // Single predicate -> 1
        assert_eq!(
            SubscriptionTree::from_predicate(Predicate::new("a", Operator::Eq, 1i64)).pmin(),
            1
        );
        // AND of 4 predicates -> 4
        let conj = Expr::and(vec![
            Expr::eq("a", 1i64),
            Expr::eq("b", 1i64),
            Expr::eq("c", 1i64),
            Expr::eq("d", 1i64),
        ]);
        assert_eq!(SubscriptionTree::from_expr(&conj).pmin(), 4);
        // NOT contributes 0: AND(pred, NOT(pred)) -> 1
        let with_not = Expr::and(vec![Expr::eq("a", 1i64), Expr::not(Expr::eq("b", 2i64))]);
        assert_eq!(SubscriptionTree::from_expr(&with_not).pmin(), 1);
        // OR(pred, NOT(pred)) -> 0
        let or_not = Expr::or(vec![Expr::eq("a", 1i64), Expr::not(Expr::eq("b", 2i64))]);
        assert_eq!(SubscriptionTree::from_expr(&or_not).pmin(), 0);
    }

    #[test]
    fn pmin_of_single_predicate_trees() {
        // A lone predicate needs exactly itself fulfilled, however the tree
        // was built.
        let from_pred = SubscriptionTree::from_predicate(Predicate::new("a", Operator::Lt, 9i64));
        assert_eq!(from_pred.pmin(), 1);
        assert!(from_pred.is_single_predicate());
        // Single-predicate trees admit no pruning: the root cannot be
        // removed, so pmin can never drop below 1 here.
        assert!(from_pred.generalizing_removals().is_empty());
        assert!(from_pred.prune(from_pred.root()).is_err());

        // Wrapper AND/OR nodes around one predicate collapse on
        // construction and must not inflate pmin.
        let wrapped = Expr::And(vec![Expr::Or(vec![Expr::eq("a", 1i64)])]);
        assert_eq!(SubscriptionTree::from_expr(&wrapped).pmin(), 1);
    }

    #[test]
    fn pmin_under_negation_parity() {
        // A negated leaf is fulfilled by the *absence* of predicate matches,
        // so any subtree under NOT contributes 0 to pmin.
        let single_not = Expr::not(Expr::eq("a", 1i64));
        assert_eq!(SubscriptionTree::from_expr(&single_not).pmin(), 0);

        // Double negation: pmin stays the conservative 0 even though
        // NOT(NOT(p)) is semantically p. The counting matcher only needs a
        // lower bound, so 0 is sound (never above the true requirement).
        let double_not = Expr::not(Expr::not(Expr::eq("a", 1i64)));
        let t = SubscriptionTree::from_expr(&double_not);
        assert_eq!(t.pmin(), 0);
        // The innermost predicate sits under two NOTs: even parity.
        let leaf = t
            .node_ids()
            .find(|id| t.node(*id).unwrap().kind().is_leaf())
            .unwrap();
        assert!(!t.negation_parity(leaf));

        // NOT inside AND: the negated branch contributes 0, the positive
        // branches still count.
        let mixed = Expr::and(vec![
            Expr::eq("a", 1i64),
            Expr::eq("b", 2i64),
            Expr::not(Expr::and(vec![Expr::eq("c", 3i64), Expr::eq("d", 4i64)])),
        ]);
        assert_eq!(SubscriptionTree::from_expr(&mixed).pmin(), 2);

        // NOT inside OR: one 0-cost alternative pulls the whole OR to 0.
        let escape = Expr::or(vec![
            Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
            Expr::not(Expr::eq("c", 3i64)),
        ]);
        assert_eq!(SubscriptionTree::from_expr(&escape).pmin(), 0);
    }

    #[test]
    fn pmin_of_nested_or_of_and() {
        // AND( OR(AND(a,b), c), OR(d, AND(e,f,g)) )
        //   -> min(2, 1) + min(1, 3) = 2
        let e = Expr::and(vec![
            Expr::or(vec![
                Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
                Expr::eq("c", 3i64),
            ]),
            Expr::or(vec![
                Expr::eq("d", 4i64),
                Expr::and(vec![
                    Expr::eq("e", 5i64),
                    Expr::eq("f", 6i64),
                    Expr::eq("g", 7i64),
                ]),
            ]),
        ]);
        assert_eq!(SubscriptionTree::from_expr(&e).pmin(), 2);

        // OR of ANDs alone takes the cheapest conjunction.
        let or_of_and = Expr::or(vec![
            Expr::and(vec![
                Expr::eq("a", 1i64),
                Expr::eq("b", 2i64),
                Expr::eq("c", 3i64),
            ]),
            Expr::and(vec![Expr::eq("d", 4i64), Expr::eq("e", 5i64)]),
        ]);
        assert_eq!(SubscriptionTree::from_expr(&or_of_and).pmin(), 2);
    }

    #[test]
    fn pmin_is_a_sound_counting_bound() {
        // The invariant the counting matcher relies on: whenever a truth
        // assignment fulfils the tree, at least `pmin` leaves are true.
        // Checked exhaustively over all 2^n assignments of small trees.
        let exprs = [
            sample_expr(),
            Expr::or(vec![
                Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
                Expr::not(Expr::eq("c", 3i64)),
            ]),
            Expr::and(vec![
                Expr::or(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
                Expr::not(Expr::and(vec![Expr::eq("c", 3i64), Expr::eq("d", 4i64)])),
            ]),
            Expr::not(Expr::not(Expr::eq("a", 1i64))),
        ];
        for e in &exprs {
            let t = SubscriptionTree::from_expr(e);
            let leaves: Vec<NodeId> = t
                .node_ids()
                .filter(|id| t.node(*id).unwrap().kind().is_leaf())
                .collect();
            let pmin = t.pmin();
            for assignment in 0u32..(1 << leaves.len()) {
                let truth_of = |id: NodeId| {
                    let idx = leaves.iter().position(|l| *l == id).unwrap();
                    assignment & (1 << idx) != 0
                };
                let fulfilled = t.evaluate_leaves(&mut |id, _| truth_of(id));
                let true_leaves = assignment.count_ones() as usize;
                if fulfilled {
                    assert!(
                        true_leaves >= pmin,
                        "tree fulfilled with {true_leaves} < pmin {pmin}: {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn pmin_never_increases_under_valid_pruning() {
        let exprs = [
            sample_expr(),
            Expr::and(vec![
                Expr::eq("a", 1i64),
                Expr::not(Expr::or(vec![Expr::eq("b", 2i64), Expr::eq("c", 3i64)])),
            ]),
            Expr::not(Expr::or(vec![
                Expr::eq("a", 1i64),
                Expr::and(vec![Expr::eq("b", 2i64), Expr::eq("c", 3i64)]),
            ])),
        ];
        for e in &exprs {
            let t = SubscriptionTree::from_expr(e);
            for node in t.generalizing_removals() {
                let pruned = t.prune(node).unwrap();
                assert!(
                    pruned.pmin() <= t.pmin(),
                    "pruning raised pmin from {} to {} on {t}",
                    t.pmin(),
                    pruned.pmin()
                );
            }
        }
    }

    #[test]
    fn size_bytes_shrinks_with_pruning() {
        let t = sample_tree();
        let total = t.size_bytes();
        assert!(total > 0);
        let removable = t.generalizing_removals();
        assert!(!removable.is_empty());
        for node in removable {
            let pruned = t.prune(node).unwrap();
            assert!(pruned.size_bytes() < total, "pruning must shrink the tree");
        }
    }

    #[test]
    fn negation_parity() {
        // NOT(AND(a, OR(b, c)))
        let e = Expr::not(Expr::and(vec![
            Expr::eq("a", 1i64),
            Expr::or(vec![Expr::eq("b", 1i64), Expr::eq("c", 1i64)]),
        ]));
        let t = SubscriptionTree::from_expr(&e);
        // Root NOT has even parity (no NOT above it).
        assert!(!t.negation_parity(t.root()));
        // Every other node lies below exactly one NOT.
        for id in t.node_ids() {
            if id != t.root() {
                assert!(t.negation_parity(id), "node {id} should have odd parity");
            }
        }
    }

    #[test]
    fn valid_prunings_on_positive_tree() {
        let t = sample_tree();
        let removable = t.generalizing_removals();
        // Children of the two AND nodes are removable (5 leaves); the AND
        // nodes themselves are children of the OR root under even parity and
        // are NOT removable (that would specialize).
        assert_eq!(removable.len(), 5);
        for id in &removable {
            assert!(t.node(*id).unwrap().kind().is_leaf());
        }
    }

    #[test]
    fn or_children_not_prunable_without_negation() {
        let e = Expr::or(vec![Expr::eq("a", 1i64), Expr::eq("b", 1i64)]);
        let t = SubscriptionTree::from_expr(&e);
        assert!(t.generalizing_removals().is_empty());
        for id in t.node_ids() {
            if id != t.root() {
                assert_eq!(t.validate_prune(id), Err(PruneError::WouldSpecialize(id)));
            }
        }
    }

    #[test]
    fn or_children_prunable_under_negation() {
        // NOT(OR(a, b)): removing an OR child under odd parity generalizes,
        // because NOT(a OR b) = NOT a AND NOT b, and dropping a conjunct
        // (e.g. keeping only NOT a) is a generalization.
        let e = Expr::not(Expr::or(vec![Expr::eq("a", 1i64), Expr::eq("b", 1i64)]));
        let t = SubscriptionTree::from_expr(&e);
        let removable = t.generalizing_removals();
        assert_eq!(removable.len(), 2);

        // And conversely, AND children under odd parity are not prunable.
        let e = Expr::not(Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 1i64)]));
        let t = SubscriptionTree::from_expr(&e);
        assert!(t.generalizing_removals().is_empty());
    }

    #[test]
    fn root_and_not_child_cannot_be_pruned() {
        let t = sample_tree();
        assert_eq!(t.validate_prune(t.root()), Err(PruneError::CannotPruneRoot));

        let e = Expr::not(Expr::eq("a", 1i64));
        let t = SubscriptionTree::from_expr(&e);
        let child = t.children(t.root()).next().unwrap();
        assert!(t.validate_prune(child).is_err());
    }

    #[test]
    fn unknown_node_is_rejected() {
        let t = sample_tree();
        let bogus = NodeId::from_index(10_000);
        assert_eq!(t.validate_prune(bogus), Err(PruneError::UnknownNode(bogus)));
        assert!(t.prune(bogus).is_err());
        assert_eq!(t.subtree_size_bytes(bogus), 0);
        assert_eq!(t.subtree_predicate_count(bogus), 0);
    }

    #[test]
    fn pruning_generalizes_matching() {
        let t = sample_tree();
        // Event matching only part of the first conjunction.
        let ev = EventMessage::builder()
            .attr("category", "books")
            .attr("price", 10i64)
            .attr("bids", 0i64) // fails bids >= 2
            .build();
        assert!(!t.evaluate(&ev));
        // Find and prune the bids predicate; the event must now match.
        let bids_node = t
            .predicates()
            .find(|(_, p)| p.attribute() == "bids")
            .map(|(id, _)| id)
            .unwrap();
        let pruned = t.prune(bids_node).unwrap();
        assert!(pruned.evaluate(&ev));
        assert_eq!(pruned.predicate_count(), 4);
    }

    #[test]
    fn pruning_collapses_single_child_parents() {
        // AND(a, b): removing b must leave just the predicate a.
        let e = Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]);
        let t = SubscriptionTree::from_expr(&e);
        let b_node = t
            .predicates()
            .find(|(_, p)| p.attribute() == "b")
            .map(|(id, _)| id)
            .unwrap();
        let pruned = t.prune(b_node).unwrap();
        assert!(pruned.is_single_predicate());
        assert_eq!(pruned.predicate_count(), 1);
        assert_eq!(pruned.depth(), 1);
    }

    #[test]
    fn stats_after_prune_matches_actual_prune() {
        let t = sample_tree();
        for node in t.generalizing_removals() {
            let predicted = t.stats_after_prune(node).unwrap();
            let actual = t.prune(node).unwrap().stats();
            assert_eq!(predicted, actual);
        }
    }

    #[test]
    fn stats_summary() {
        let t = sample_tree();
        let s = t.stats();
        assert_eq!(s.node_count, 8);
        assert_eq!(s.predicate_count, 5);
        assert_eq!(s.depth, 3);
        assert_eq!(s.pmin, 2);
        assert_eq!(s.size_bytes, t.size_bytes());
    }

    #[test]
    fn expr_roundtrip_preserves_semantics() {
        let t = sample_tree();
        let back = SubscriptionTree::from_expr(&t.to_expr());
        assert_eq!(back.predicate_count(), t.predicate_count());
        assert_eq!(back.pmin(), t.pmin());
        let ev = matching_event();
        assert_eq!(back.evaluate(&ev), t.evaluate(&ev));
    }

    #[test]
    fn display_shows_expression() {
        let s = sample_tree().to_string();
        assert!(s.contains("AND"));
        assert!(s.contains("OR"));
    }
}
