//! Registration-time static analysis of subscription expressions.
//!
//! Brokers accept *non-canonical* Boolean subscription trees (the paper's
//! core premise), which means clients can register contradictory, redundant,
//! or bloated expressions that every subsequent event pays for. This module
//! analyzes a subscription **once, at registration time**, and produces a
//! semantically equivalent normalized tree plus a diagnostics report:
//!
//! 1. **Constant folding + flattening + duplicate elimination.** Predicates
//!    that can never be true under the evaluation semantics (a `NaN`
//!    constant, a string operator applied to a non-string constant, `x >
//!    true`, `x < false`) fold to constants; nested `And`/`Or` nodes of the
//!    same kind are flattened; duplicate and implied siblings are dropped.
//!    Flattening doubles as *equality-set fusion*: `Or(x=1, Or(x=2, x=3))`
//!    becomes the single-level `Or(x=1, x=2, x=3)` that the counting
//!    engine recognizes as an equality group (an access clause).
//! 2. **Per-attribute interval analysis over required conjuncts.**
//!    Contradictions (`x>5 ∧ x<3`, `x=5 ∧ x="a"`, `x≥5 ∧ x≤5 ∧ x≠5`,
//!    incompatible prefixes, …) make the conjunction — possibly the whole
//!    subscription — unsatisfiable; redundant ranges (`x>3 ∧ x>5`) collapse
//!    to the tighter bound via [`Predicate::covers`].
//! 3. **Absorption.** `p ∨ (p ∧ q)` ⇒ `p` and `p ∧ (p ∨ q)` ⇒ `p`, and
//!    generally any sibling implied by (in `Or`) or implying (in `And`)
//!    another sibling is dropped.
//! 4. **Subsumption.** [`implies`] is a fast, sound-but-incomplete
//!    event-level implication check between arbitrary (not just
//!    conjunctive) expressions, used by routing layers to prune both
//!    covering associations and the `Subscribe` flood.
//!
//! ## Soundness under the evaluation semantics
//!
//! Every transformation here preserves the *event-level* semantics of
//! [`SubscriptionTree::evaluate`]: a predicate on a **missing attribute is
//! false**, a type-mismatched comparison is false (including `≠`), and
//! `Not` inverts the child. In particular there are **no tautological
//! predicates** — `x>1 ∨ x≤1` is *not* true for an event without `x` — so
//! this analyzer never folds a disjunction of complementary ranges to
//! "true". The only always-true expressions are negations of always-false
//! ones, which is exactly how a tree that simplifies to "true" is
//! materialized (as `Not(f)` for an always-false witness `f`).
//!
//! Numeric interval reasoning is restricted to constants whose `f64`
//! image is exact (`|int| < 2^53`): beyond that, mixed `Int`/`Float`
//! comparisons lose transitivity (`Int(2^53+1)` compares equal to
//! `Float(2^53)`) and bound arithmetic would become unsound. Groups
//! containing an unsafe constant are left untouched.
//!
//! ## Hash-consed fingerprints
//!
//! [`expr_fingerprint`] computes an FNV-64 structural fingerprint that is
//! *commutative over `And`/`Or` children*, so `And(a, b)` and `And(b, a)`
//! fingerprint identically. This is the normal form future A-Tree-style
//! shared-subexpression indexes should key on.

use crate::hash::Fnv64;
use crate::{AttrId, Expr, Operator, Predicate, Subscription, SubscriptionTree, Value};
use std::collections::BTreeMap;

/// Widest `And`/`Or` node that still gets the quadratic sibling-implication
/// pass; wider nodes only get fingerprint-based duplicate elimination.
const PAIRWISE_CAP: usize = 48;

/// Diagnostics produced by one [`Analyzer`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Whether any event can ever match the subscription. When `false` the
    /// analysis yields no tree: the subscription should be counted and
    /// dropped, never indexed or flooded.
    pub satisfiable: bool,
    /// Whether normalization changed the expression at all.
    pub changed: bool,
    /// Expression node count before analysis.
    pub nodes_before: usize,
    /// Expression node count after analysis (`0` when unsatisfiable).
    pub nodes_after: usize,
    /// Predicates folded away because they can never be true (`NaN`
    /// constants, string operators on non-string constants, …).
    pub constants_folded: usize,
    /// Siblings dropped because another sibling made them redundant
    /// (duplicates, absorbed subtrees, covered range predicates).
    pub siblings_eliminated: usize,
    /// Conjunction-level contradictions discovered by interval analysis.
    pub contradictions: usize,
    /// Whether a selectivity oracle reordered any `And`/`Or` children.
    pub reordered: bool,
}

impl Default for AnalysisReport {
    fn default() -> Self {
        Self {
            satisfiable: true,
            changed: false,
            nodes_before: 0,
            nodes_after: 0,
            constants_folded: 0,
            siblings_eliminated: 0,
            contradictions: 0,
            reordered: false,
        }
    }
}

impl AnalysisReport {
    /// Net number of expression nodes removed by normalization.
    pub fn nodes_eliminated(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

/// The result of analyzing one subscription tree.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The normalized, semantically equivalent tree — `None` when the
    /// subscription is unsatisfiable.
    pub tree: Option<SubscriptionTree>,
    /// Diagnostics for the run.
    pub report: AnalysisReport,
}

/// A registration-time static analyzer for subscription trees.
///
/// Stateless apart from an optional selectivity oracle; cheap to construct
/// per insertion.
///
/// ```
/// use pubsub_core::analysis::Analyzer;
/// use pubsub_core::{Expr, SubscriptionTree};
///
/// // x > 3 ∧ x > 5 collapses to the tighter bound.
/// let tree = SubscriptionTree::from_expr(&Expr::and(vec![
///     Expr::gt("x", 3i64),
///     Expr::gt("x", 5i64),
/// ]));
/// let analysis = Analyzer::new().analyze_tree(&tree);
/// let normalized = analysis.tree.expect("satisfiable");
/// assert_eq!(normalized.to_expr(), Expr::gt("x", 5i64));
///
/// // x > 5 ∧ x < 3 is unsatisfiable and yields no tree at all.
/// let tree = SubscriptionTree::from_expr(&Expr::and(vec![
///     Expr::gt("x", 5i64),
///     Expr::lt("x", 3i64),
/// ]));
/// let analysis = Analyzer::new().analyze_tree(&tree);
/// assert!(analysis.tree.is_none());
/// assert!(!analysis.report.satisfiable);
/// ```
pub struct Analyzer<'a> {
    selectivity: Option<&'a dyn Fn(&Predicate) -> f64>,
}

impl std::fmt::Debug for Analyzer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("selectivity", &self.selectivity.is_some())
            .finish()
    }
}

impl Default for Analyzer<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Analyzer<'a> {
    /// Creates an analyzer without a selectivity oracle: children keep
    /// their registration order (minus eliminations).
    pub fn new() -> Self {
        Self { selectivity: None }
    }

    /// Attaches a selectivity oracle (estimated probability that a random
    /// event satisfies a predicate). With an oracle the analyzer reorders
    /// `And` children most-selective-first (fail fast) and `Or` children
    /// least-selective-first (succeed fast), so short-circuit evaluation
    /// touches as few subtrees as possible.
    pub fn with_selectivity(self, oracle: &'a dyn Fn(&Predicate) -> f64) -> Self {
        Self {
            selectivity: Some(oracle),
        }
    }

    /// Analyzes a tree, returning the normalized equivalent (or `None` when
    /// unsatisfiable) plus diagnostics.
    pub fn analyze_tree(&self, tree: &SubscriptionTree) -> Analysis {
        let expr = tree.to_expr();
        let mut report = AnalysisReport {
            nodes_before: expr.node_count(),
            ..AnalysisReport::default()
        };
        let normalized = match self.fold(&expr, &mut report) {
            Simp::Const {
                value: false,
                witness,
            } => {
                // The witness is an always-false subexpression retained for
                // diagnostics only; the subscription itself is rejected.
                debug_assert!(!witness.evaluate(&crate::EventMessage::builder().build()));
                report.satisfiable = false;
                report.changed = true;
                report.nodes_after = 0;
                return Analysis { tree: None, report };
            }
            // An always-true tree (only reachable through `Not` of an
            // always-false subtree) is materialized as the negation of its
            // smallest always-false witness.
            Simp::Const {
                value: true,
                witness,
            } => Expr::not(witness),
            Simp::Expr(e) => e,
        };
        report.nodes_after = normalized.node_count();
        report.changed = normalized != expr;
        // Unchanged means `normalized == tree.to_expr()`, which rebuilds to
        // a tree equal to `tree`: hand back `tree` itself, sharing its nodes.
        let tree = if report.changed {
            SubscriptionTree::from_expr(&normalized)
        } else {
            tree.clone()
        };
        Analysis {
            tree: Some(tree),
            report,
        }
    }

    /// Analyzes a subscription, keeping its identity (id and subscriber)
    /// on the normalized result.
    pub fn analyze_subscription(
        &self,
        subscription: &Subscription,
    ) -> (Option<Subscription>, AnalysisReport) {
        let analysis = self.analyze_tree(subscription.tree());
        (
            analysis.tree.map(|tree| subscription.with_tree(tree)),
            analysis.report,
        )
    }

    fn fold(&self, expr: &Expr, report: &mut AnalysisReport) -> Simp {
        match expr {
            Expr::Pred(p) => {
                if always_false(p) {
                    report.constants_folded += 1;
                    Simp::Const {
                        value: false,
                        witness: expr.clone(),
                    }
                } else {
                    Simp::Expr(expr.clone())
                }
            }
            Expr::Not(child) => match self.fold(child, report) {
                // ¬false = true and ¬true = false; either way the witness
                // (an always-false expression) carries over unchanged.
                Simp::Const { value, witness } => Simp::Const {
                    value: !value,
                    witness,
                },
                Simp::Expr(Expr::Not(inner)) => Simp::Expr(*inner),
                Simp::Expr(e) => Simp::Expr(Expr::not(e)),
            },
            Expr::And(children) => self.fold_nary(true, children, report),
            Expr::Or(children) => self.fold_nary(false, children, report),
        }
    }

    /// Folds one `And` (`conjunction == true`) or `Or` node: folds children,
    /// flattens same-kind grandchildren, eliminates redundant siblings,
    /// detects conjunct contradictions, and optionally reorders by
    /// selectivity.
    fn fold_nary(&self, conjunction: bool, children: &[Expr], report: &mut AnalysisReport) -> Simp {
        let mut flat: Vec<Expr> = Vec::with_capacity(children.len());
        let mut neutral_witness: Option<Expr> = None;
        for child in children {
            match self.fold(child, report) {
                Simp::Const { value, witness } => {
                    if value == conjunction {
                        // `true` in And / `false` in Or: the child vanishes.
                        neutral_witness = Some(witness);
                    } else {
                        // `false` in And / `true` in Or: absorbing element.
                        return Simp::Const {
                            value: !conjunction,
                            witness,
                        };
                    }
                }
                Simp::Expr(folded) => match folded {
                    Expr::And(grand) if conjunction => flat.extend(grand),
                    Expr::Or(grand) if !conjunction => flat.extend(grand),
                    other => flat.push(other),
                },
            }
        }
        if flat.is_empty() {
            // Every child was a neutral constant, so the node itself is
            // constant; at least one child existed, so a witness was saved.
            let witness = match neutral_witness {
                Some(w) => w,
                None => return Simp::Expr(Expr::and(children.to_vec())),
            };
            return Simp::Const {
                value: conjunction,
                witness,
            };
        }

        let mut kept = self.eliminate_siblings(conjunction, flat, report);

        if conjunction {
            let conjunct_preds: Vec<&Predicate> = kept
                .iter()
                .filter_map(|e| match e {
                    Expr::Pred(p) => Some(p),
                    _ => None,
                })
                .collect();
            if let Some(witness) = conjunction_contradiction(&conjunct_preds) {
                report.contradictions += 1;
                let witness = Expr::and(witness.into_iter().map(Expr::Pred).collect());
                return Simp::Const {
                    value: false,
                    witness,
                };
            }
        }

        if self.selectivity.is_some() && kept.len() > 1 {
            let keys: Vec<f64> = kept.iter().map(|e| self.estimate(e)).collect();
            let mut order: Vec<usize> = (0..kept.len()).collect();
            // And: most selective (lowest pass probability) first, to fail
            // fast. Or: least selective first, to succeed fast.
            order.sort_by(|&a, &b| {
                if conjunction {
                    keys[a].total_cmp(&keys[b])
                } else {
                    keys[b].total_cmp(&keys[a])
                }
            });
            if order.windows(2).any(|w| w[0] > w[1]) {
                report.reordered = true;
                let mut slots: Vec<Option<Expr>> = kept.into_iter().map(Some).collect();
                kept = order.into_iter().filter_map(|i| slots[i].take()).collect();
            }
        }

        if kept.len() == 1 {
            let only = match kept.pop() {
                Some(e) => e,
                None => return Simp::Expr(Expr::and(children.to_vec())),
            };
            Simp::Expr(only)
        } else if conjunction {
            Simp::Expr(Expr::And(kept))
        } else {
            Simp::Expr(Expr::Or(kept))
        }
    }

    /// Drops siblings made redundant by another sibling. In a conjunction a
    /// child implied by another child is redundant (`x>3` next to `x>5`,
    /// `p∨q` next to `p`); in a disjunction a child that *implies* another
    /// child is redundant (`p∧q` next to `p`, duplicate branches).
    ///
    /// Greedy, order-preserving, and sound even though [`implies`] is
    /// incomplete: every dropped child has a semantic dominator among the
    /// survivors (dominance is transitive at the semantic level, so later
    /// replacements of a dominator keep earlier drops justified).
    fn eliminate_siblings(
        &self,
        conjunction: bool,
        children: Vec<Expr>,
        report: &mut AnalysisReport,
    ) -> Vec<Expr> {
        if children.len() > PAIRWISE_CAP {
            // Too wide for the quadratic implication pass: only drop exact
            // structural duplicates, keyed by commutative fingerprint.
            let mut seen: Vec<(u64, usize)> = Vec::with_capacity(children.len());
            let mut kept: Vec<Expr> = Vec::with_capacity(children.len());
            'wide: for child in children {
                let fp = expr_fingerprint(&child);
                for &(seen_fp, at) in &seen {
                    if seen_fp == fp && kept[at] == child {
                        report.siblings_eliminated += 1;
                        continue 'wide;
                    }
                }
                seen.push((fp, kept.len()));
                kept.push(child);
            }
            return kept;
        }

        let mut kept: Vec<Expr> = Vec::with_capacity(children.len());
        'next: for cand in children {
            for existing in &kept {
                let redundant = if conjunction {
                    implies(existing, &cand)
                } else {
                    implies(&cand, existing)
                };
                if redundant {
                    report.siblings_eliminated += 1;
                    continue 'next;
                }
            }
            kept.retain(|existing| {
                let dominated = if conjunction {
                    implies(&cand, existing)
                } else {
                    implies(existing, &cand)
                };
                if dominated {
                    report.siblings_eliminated += 1;
                }
                !dominated
            });
            kept.push(cand);
        }
        kept
    }

    /// Estimated probability that a random event satisfies `expr`, under an
    /// attribute-independence assumption. Only called when an oracle is
    /// installed.
    fn estimate(&self, expr: &Expr) -> f64 {
        match expr {
            Expr::Pred(p) => match self.selectivity {
                Some(oracle) => oracle(p).clamp(0.0, 1.0),
                None => 0.5,
            },
            Expr::And(children) => children.iter().map(|c| self.estimate(c)).product(),
            Expr::Or(children) => {
                1.0 - children
                    .iter()
                    .map(|c| 1.0 - self.estimate(c))
                    .product::<f64>()
            }
            Expr::Not(child) => 1.0 - self.estimate(child),
        }
    }
}

/// Intermediate folding result: a live expression or a constant with an
/// always-false witness expression (`value: true` materializes as
/// `Not(witness)`).
enum Simp {
    Expr(Expr),
    Const { value: bool, witness: Expr },
}

/// Whether a predicate can never be true, for any event.
///
/// Under the evaluation semantics a comparison against `NaN` is always
/// false (even `≠`), a string operator needs a string constant, and the
/// boolean domain has no value above `true` or below `false`.
fn always_false(p: &Predicate) -> bool {
    if let Value::Float(f) = p.constant() {
        if f.is_nan() {
            return true;
        }
    }
    if p.operator().is_string_operator() && p.constant().as_str().is_none() {
        return true;
    }
    matches!(
        (p.operator(), p.constant()),
        (Operator::Gt, Value::Bool(true)) | (Operator::Lt, Value::Bool(false))
    )
}

/// Sound-but-incomplete event-level implication: `true` guarantees that
/// every event satisfying `stronger` also satisfies `weaker` (for *all*
/// events, including those missing attributes — which is why predicate
/// coverage, not abstract Boolean algebra, is the leaf rule). `false` means
/// "could not prove it".
pub fn implies(stronger: &Expr, weaker: &Expr) -> bool {
    if stronger == weaker {
        return true;
    }
    match (stronger, weaker) {
        // Universal decompositions first — these lose no precision.
        (_, Expr::And(ws)) => ws.iter().all(|w| implies(stronger, w)),
        (Expr::Or(ss), _) => ss.iter().all(|s| implies(s, weaker)),
        // Existential decompositions: sufficient, not necessary. An `And`
        // against an `Or` tries both: one conjunct implies the whole `Or`,
        // or the whole `And` implies one disjunct.
        (Expr::And(ss), _) => {
            ss.iter().any(|s| implies(s, weaker))
                || matches!(weaker, Expr::Or(ws) if ws.iter().any(|w| implies(stronger, w)))
        }
        (_, Expr::Or(ws)) => ws.iter().any(|w| implies(stronger, w)),
        (Expr::Pred(sp), Expr::Pred(wp)) => wp.covers(sp),
        // ¬a → ¬b iff b → a.
        (Expr::Not(si), Expr::Not(wi)) => implies(wi, si),
        _ => false,
    }
}

/// Whether `general` subsumes `specific`: every event matching `specific`
/// is guaranteed to match `general`. Sound but incomplete, and valid for
/// arbitrary (non-conjunctive) trees.
pub fn subsumes(general: &SubscriptionTree, specific: &SubscriptionTree) -> bool {
    implies(&specific.to_expr(), &general.to_expr())
}

/// What [`implies`] can be told about one attribute an expression *bounds*:
/// every derivation `implies(S, W)` in which `W` bounds the attribute goes
/// through an `attribute = constant` leaf the two share.
///
/// An attribute is bounded by an `=` predicate on it, by an `And` with a
/// child that bounds it, and by an `Or` all of whose children bound it.
/// Constants are identified by a 64-bit key ([`Predicate`] equality decides
/// whether two `=` leaves are one constant, so `-0.0` and `0.0` share a
/// key); a key collision only ever admits extra candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqBound {
    attr: AttrId,
    /// Three bits per constant: `And` intersects, `Or` unites.
    bloom: u64,
    filing: Vec<u64>,
    probes: Vec<u64>,
}

impl EqBound {
    /// The bounded attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// The keys to file the expression under as a *weaker* side: an `Or`
    /// contributes all its children's keys, an `And` those of its child with
    /// the fewest. Never empty; sorted, without duplicates.
    pub fn filing_keys(&self) -> &[u64] {
        &self.filing
    }

    /// The keys to look the expression up with as a *stronger* side: an `And`
    /// contributes all its bounding children's keys (any one of them may be
    /// the one that implies), an `Or` those of its first child (all of them
    /// imply). `implies(S, W)` with `W` bounding the attribute guarantees a
    /// probe key of `S` among the filing keys of `W`. Never empty; sorted,
    /// without duplicates.
    pub fn probe_keys(&self) -> &[u64] {
        &self.probes
    }
}

/// The attributes and `=` constants a derivation of [`implies`] must go
/// through, computed bottom-up over the same cases `implies` recurses over.
///
/// For a [valid](Expr::is_valid) expression `E`:
///
/// * `required(E)` — attributes every event satisfying `E` carries:
///   predicate → its attribute, `And` → union, `Or` → intersection,
///   `Not` → none;
/// * `bounded(E)` — see [`EqBound`].
///
/// **Lemma.** `implies(S, W)` ⇒ `required(W) ⊆ required(S)`, and every
/// attribute `W` bounds is bounded by `S`, with the bloom of `S` a subset of
/// the bloom of `W` and a probe key of `S` among the filing keys of `W`.
/// By induction over the rules of `implies`: equal sides are trivial;
/// `W = And` and `S = Or` hold for every child, which union / intersection
/// (and "the child with the fewest keys" / "the first child") preserve;
/// `S = And` and `W = Or` hold for one child, of which the other side's
/// union (respectively intersection) is a superset (subset); a predicate
/// covered by an `=` predicate is that very predicate; a `Not` requires and
/// bounds nothing. [`ImplicationSummary`] is the constant-size form of the
/// subset tests; an index over the filing keys finds the candidates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ImplicationProfile {
    /// Sorted, without duplicates.
    required: Vec<AttrId>,
    /// Sorted by attribute, one entry per attribute.
    bounded: Vec<EqBound>,
}

impl ImplicationProfile {
    /// Profiles an expression (which must be [valid](Expr::is_valid), as
    /// every expression read back from a [`SubscriptionTree`] is).
    pub fn of(expr: &Expr) -> Self {
        debug_assert!(expr.is_valid(), "profiled expression is invalid");
        let mut profile = Self::fold(expr);
        profile.required.sort_unstable();
        profile.required.dedup();
        profile.bounded.sort_unstable_by_key(|bound| bound.attr);
        for bound in &mut profile.bounded {
            for keys in [&mut bound.filing, &mut bound.probes] {
                keys.sort_unstable();
                keys.dedup();
            }
        }
        profile
    }

    fn fold(expr: &Expr) -> Self {
        match expr {
            Expr::Pred(p) => {
                let attr = p.attr_id();
                let bounded = if p.operator() == Operator::Eq {
                    let key = eq_constant_key(p.constant());
                    vec![EqBound {
                        attr,
                        bloom: bloom_bits(key),
                        filing: vec![key],
                        probes: vec![key],
                    }]
                } else {
                    Vec::new()
                };
                Self {
                    required: vec![attr],
                    bounded,
                }
            }
            Expr::Not(_) => Self::default(),
            Expr::And(children) => {
                let mut all = Self::default();
                for child in children.iter().map(Self::fold) {
                    all.required.extend(child.required);
                    for bound in child.bounded {
                        match all.bounded.iter_mut().find(|b| b.attr == bound.attr) {
                            Some(merged) => {
                                merged.bloom &= bound.bloom;
                                if bound.filing.len() < merged.filing.len() {
                                    merged.filing = bound.filing;
                                }
                                merged.probes.extend(bound.probes);
                            }
                            None => all.bounded.push(bound),
                        }
                    }
                }
                all
            }
            Expr::Or(children) => {
                let mut folded = children.iter().map(Self::fold);
                let mut common = folded.next().unwrap_or_default();
                for child in folded {
                    common.required.retain(|attr| child.required.contains(attr));
                    common.bounded.retain_mut(|merged| {
                        let Some(bound) = child.bounded.iter().find(|b| b.attr == merged.attr)
                        else {
                            return false;
                        };
                        merged.bloom |= bound.bloom;
                        merged.filing.extend(&bound.filing);
                        true
                    });
                }
                common
            }
        }
    }

    /// The attributes every satisfying event carries, ascending.
    pub fn required(&self) -> &[AttrId] {
        &self.required
    }

    /// The bounded attributes, ascending by attribute.
    pub fn bounded(&self) -> &[EqBound] {
        &self.bounded
    }

    /// The constant-size necessary test of the lemma.
    pub fn summary(&self) -> ImplicationSummary {
        let mut summary = ImplicationSummary {
            required: attr_mask(self.required.iter().copied()),
            bounded: attr_mask(self.bounded.iter().map(EqBound::attr)),
            bloom_attrs: [NO_ATTR; 2],
            blooms: [0; 2],
        };
        for (slot, bound) in self.bounded.iter().take(2).enumerate() {
            summary.bloom_attrs[slot] = bound.attr.raw();
            summary.blooms[slot] = bound.bloom;
        }
        summary
    }
}

/// Three of 64 bits per constant, from disjoint bits of its key.
fn bloom_bits(key: u64) -> u64 {
    1 << (key >> 58) | 1 << (key >> 52 & 63) | 1 << (key >> 46 & 63)
}

fn attr_mask(attrs: impl Iterator<Item = AttrId>) -> u64 {
    attrs.fold(0, |mask, attr| mask | 1 << (attr.raw() % 64))
}

/// Marks an unused bloom slot of an [`ImplicationSummary`]; the attribute
/// table cannot hand out this id.
const NO_ATTR: u32 = u32::MAX;

/// 40 bytes of an [`ImplicationProfile`], enough to refuse most pairs
/// without looking at either expression: the required and the bounded
/// attributes as 64-bit masks (attribute id mod 64) and the blooms of the
/// two lowest bounded attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplicationSummary {
    required: u64,
    bounded: u64,
    bloom_attrs: [u32; 2],
    blooms: [u64; 2],
}

impl ImplicationSummary {
    /// Summarizes an expression: `ImplicationProfile::of(expr).summary()`.
    pub fn of(expr: &Expr) -> Self {
        ImplicationProfile::of(expr).summary()
    }

    /// `false` only if `implies(stronger, weaker)` is `false` for the
    /// expressions `self` and `weaker` summarize (the lemma of
    /// [`ImplicationProfile`]); `true` says nothing. An attribute whose bloom
    /// `self` did not keep is bounded by an unknown set and passes.
    pub fn may_imply(&self, weaker: &Self) -> bool {
        if weaker.required & !self.required != 0 || weaker.bounded & !self.bounded != 0 {
            return false;
        }
        weaker
            .bloom_attrs
            .iter()
            .zip(weaker.blooms)
            .filter(|(attr, _)| **attr != NO_ATTR)
            .all(
                |(attr, weaker_bloom)| match self.bloom_attrs.iter().position(|own| own == attr) {
                    Some(slot) => self.blooms[slot] & !weaker_bloom == 0,
                    None => true,
                },
            )
    }
}

/// The identity of an `=` constant, agreeing with [`Value`] equality (which
/// compares floats numerically) on everything that equals itself.
fn eq_constant_key(constant: &Value) -> u64 {
    let mut h = Fnv64::new();
    match constant {
        Value::Float(f) if *f == 0.0 => write_value(&mut h, &Value::Float(0.0)),
        other => write_value(&mut h, other),
    }
    h.finish()
}

fn write_value(h: &mut Fnv64, value: &Value) {
    match value {
        Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        Value::Int(i) => {
            h.write_u8(2);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write_u8(3);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(4);
            h.write(s.as_bytes());
        }
    }
}

/// Structural FNV-64 fingerprint of a single predicate — the leaf case of
/// [`expr_fingerprint`], exposed so shared-subexpression indexes can
/// fingerprint nodes bottom-up without materializing an [`Expr`].
pub fn predicate_fingerprint(p: &Predicate) -> u64 {
    let mut h = Fnv64::new();
    h.write_u8(0);
    h.write_u32(p.attr_id().raw());
    h.write_u8(p.operator().wire_tag());
    write_value(&mut h, p.constant());
    h.finish()
}

/// Order-insensitive combine for `And`/`Or`: wrapping sum and xor of the
/// child fingerprints, then one FNV round over kind tag and arity.
fn combine_fingerprints(kind_tag: u8, children: &[u64]) -> u64 {
    let mut sum = 0u64;
    let mut xor = 0u64;
    for &fp in children {
        sum = sum.wrapping_add(fp);
        xor ^= fp;
    }
    let mut h = Fnv64::new();
    h.write_u8(kind_tag);
    h.write_u64(children.len() as u64);
    h.write_u64(sum);
    h.write_u64(xor);
    h.finish()
}

/// Fingerprint of an `And` over children with the given fingerprints,
/// insensitive to child order (matches [`expr_fingerprint`]).
pub fn and_fingerprint(children: &[u64]) -> u64 {
    combine_fingerprints(10, children)
}

/// Fingerprint of an `Or` over children with the given fingerprints,
/// insensitive to child order (matches [`expr_fingerprint`]).
pub fn or_fingerprint(children: &[u64]) -> u64 {
    combine_fingerprints(11, children)
}

/// Fingerprint of a `Not` over a child with the given fingerprint
/// (matches [`expr_fingerprint`]).
pub fn not_fingerprint(child: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u8(12);
    h.write_u64(child);
    h.finish()
}

/// Structural FNV-64 fingerprint of an expression, commutative over
/// `And`/`Or` children: `And(a, b)` and `And(b, a)` fingerprint
/// identically. Intended as the hash-consing key for shared-subexpression
/// (A-Tree-style) indexes over analyzer-normalized trees. Equivalent to
/// folding [`predicate_fingerprint`] / [`and_fingerprint`] /
/// [`or_fingerprint`] / [`not_fingerprint`] bottom-up.
pub fn expr_fingerprint(expr: &Expr) -> u64 {
    match expr {
        Expr::Pred(p) => predicate_fingerprint(p),
        Expr::And(children) => {
            let fps: Vec<u64> = children.iter().map(expr_fingerprint).collect();
            and_fingerprint(&fps)
        }
        Expr::Or(children) => {
            let fps: Vec<u64> = children.iter().map(expr_fingerprint).collect();
            or_fingerprint(&fps)
        }
        Expr::Not(child) => not_fingerprint(expr_fingerprint(child)),
    }
}

/// Structural fingerprint of a whole tree (see [`expr_fingerprint`]).
pub fn tree_fingerprint(tree: &SubscriptionTree) -> u64 {
    expr_fingerprint(&tree.to_expr())
}

/// The value type a predicate's satisfying values must have. A single event
/// value has exactly one type, so required conjuncts on one attribute with
/// different classes are jointly unsatisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueClass {
    Numeric,
    Text,
    Boolean,
}

fn value_class(p: &Predicate) -> ValueClass {
    if p.operator().is_string_operator() {
        return ValueClass::Text;
    }
    match p.constant() {
        Value::Int(_) | Value::Float(_) => ValueClass::Numeric,
        Value::Str(_) => ValueClass::Text,
        Value::Bool(_) => ValueClass::Boolean,
    }
}

/// Checks the *direct predicate children* of a conjunction for a
/// per-attribute contradiction. Returns the (cloned) predicates witnessing
/// it, or `None` when no contradiction was proven.
fn conjunction_contradiction(preds: &[&Predicate]) -> Option<Vec<Predicate>> {
    let mut by_attr: BTreeMap<AttrId, Vec<&Predicate>> = BTreeMap::new();
    for p in preds {
        by_attr.entry(p.attr_id()).or_default().push(p);
    }
    for group in by_attr.values() {
        if group.len() < 2 {
            continue;
        }
        if let Some(witness) = group_contradiction(group) {
            return Some(witness);
        }
    }
    None
}

fn group_contradiction(group: &[&Predicate]) -> Option<Vec<Predicate>> {
    let class = value_class(group[0]);
    for p in &group[1..] {
        if value_class(p) != class {
            // A value has one type; the two predicates require different
            // ones, so their conjunction is unsatisfiable.
            return Some(vec![group[0].clone(), (*p).clone()]);
        }
    }
    match class {
        ValueClass::Boolean => {
            let mut mask = 0b11u8;
            for p in group {
                mask &= bool_satisfying_mask(p);
            }
            (mask == 0).then(|| group.iter().map(|p| (*p).clone()).collect())
        }
        ValueClass::Numeric => {
            // Interval reasoning is only transitive-safe when every integer
            // constant (and its successor) is exact in f64.
            if !group.iter().all(|p| p.constant().is_f64_exact()) {
                return None;
            }
            ordered_contradiction(group)
        }
        ValueClass::Text => {
            text_pattern_contradiction(group).or_else(|| ordered_contradiction(group))
        }
    }
}

/// The subset of `{false, true}` (bit 0 = false, bit 1 = true) satisfying a
/// boolean-class predicate.
fn bool_satisfying_mask(p: &Predicate) -> u8 {
    const F: u8 = 0b01;
    const T: u8 = 0b10;
    let Some(b) = p.constant().as_bool() else {
        return F | T;
    };
    match (p.operator(), b) {
        (Operator::Eq, true) | (Operator::Ne, false) | (Operator::Gt, false) => T,
        (Operator::Eq, false) | (Operator::Ne, true) | (Operator::Lt, true) => F,
        (Operator::Le, true) | (Operator::Ge, false) => F | T,
        (Operator::Le, false) => F,
        (Operator::Ge, true) => T,
        // `x > true` / `x < false` are folded before interval analysis.
        (Operator::Gt, true) | (Operator::Lt, false) => 0,
        _ => F | T,
    }
}

/// Contradictions within one ordered (numeric or textual) attribute group:
/// an equality probed against every sibling, or disjoint lower/upper
/// bounds, or a point interval excluded by `≠`.
fn ordered_contradiction(group: &[&Predicate]) -> Option<Vec<Predicate>> {
    use std::cmp::Ordering;
    if let Some(eq) = group.iter().find(|p| p.operator() == Operator::Eq) {
        // Every value satisfying the equality compares like the constant
        // itself, so probing each sibling with it is decisive.
        for p in group {
            if !std::ptr::eq(*p, *eq) && !p.evaluate_value(eq.constant()) {
                return Some(vec![(*eq).clone(), (*p).clone()]);
            }
        }
        return None;
    }
    let mut lo: Option<(&Predicate, bool)> = None;
    let mut hi: Option<(&Predicate, bool)> = None;
    for p in group {
        match p.operator() {
            Operator::Gt | Operator::Ge => {
                let strict = p.operator() == Operator::Gt;
                let tighter = match lo {
                    None => true,
                    Some((cur, cur_strict)) => {
                        match p.constant().partial_cmp_value(cur.constant()) {
                            Some(Ordering::Greater) => true,
                            Some(Ordering::Equal) => strict && !cur_strict,
                            _ => false,
                        }
                    }
                };
                if tighter {
                    lo = Some((p, strict));
                }
            }
            Operator::Lt | Operator::Le => {
                let strict = p.operator() == Operator::Lt;
                let tighter = match hi {
                    None => true,
                    Some((cur, cur_strict)) => {
                        match p.constant().partial_cmp_value(cur.constant()) {
                            Some(Ordering::Less) => true,
                            Some(Ordering::Equal) => strict && !cur_strict,
                            _ => false,
                        }
                    }
                };
                if tighter {
                    hi = Some((p, strict));
                }
            }
            _ => {}
        }
    }
    let ((lo_p, lo_strict), (hi_p, hi_strict)) = (lo?, hi?);
    match lo_p.constant().partial_cmp_value(hi_p.constant()) {
        Some(Ordering::Greater) => Some(vec![lo_p.clone(), hi_p.clone()]),
        Some(Ordering::Equal) if lo_strict || hi_strict => Some(vec![lo_p.clone(), hi_p.clone()]),
        Some(Ordering::Equal) => {
            // Point interval [c, c]: a `≠ c` on the same attribute empties it.
            for p in group {
                if p.operator() == Operator::Ne
                    && p.constant().partial_cmp_value(lo_p.constant()) == Some(Ordering::Equal)
                {
                    return Some(vec![lo_p.clone(), hi_p.clone(), (*p).clone()]);
                }
            }
            None
        }
        _ => None,
    }
}

/// Pattern contradictions between textual predicates: two required prefixes
/// (or suffixes) must be nested in one another, or no string satisfies both.
fn text_pattern_contradiction(group: &[&Predicate]) -> Option<Vec<Predicate>> {
    for (i, a) in group.iter().enumerate() {
        for b in &group[i + 1..] {
            if a.operator() != b.operator() {
                continue;
            }
            let (Some(sa), Some(sb)) = (a.constant().as_str(), b.constant().as_str()) else {
                continue;
            };
            let incompatible = match a.operator() {
                Operator::Prefix => !sa.starts_with(sb) && !sb.starts_with(sa),
                Operator::Suffix => !sa.ends_with(sb) && !sb.ends_with(sa),
                _ => false,
            };
            if incompatible {
                return Some(vec![(*a).clone(), (*b).clone()]);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventMessage, SubscriberId, SubscriptionId};

    fn analyze(expr: &Expr) -> Analysis {
        Analyzer::new().analyze_tree(&SubscriptionTree::from_expr(expr))
    }

    fn normalized(expr: &Expr) -> Expr {
        analyze(expr)
            .tree
            .expect("expression should stay satisfiable")
            .to_expr()
    }

    /// A grid of events exercising presence, absence, type mismatch, and
    /// boundary values for the attributes the tests use.
    fn event_grid() -> Vec<EventMessage> {
        let mut events = vec![EventMessage::builder().build()];
        for x in [-10i64, 0, 1, 3, 4, 5, 6, 10] {
            events.push(EventMessage::builder().attr("x", x).build());
            events.push(
                EventMessage::builder()
                    .attr("x", x)
                    .attr("y", x * 2)
                    .build(),
            );
        }
        for x in [-0.5f64, 1.0, 3.5, 5.0, 5.5] {
            events.push(EventMessage::builder().attr("x", x).build());
        }
        for s in ["", "a", "ab", "abc", "books", "tools"] {
            events.push(EventMessage::builder().attr("x", s).build());
            events.push(EventMessage::builder().attr("s", s).attr("x", 5i64).build());
        }
        for b in [true, false] {
            events.push(EventMessage::builder().attr("x", b).build());
            events.push(EventMessage::builder().attr("b", b).attr("x", 4i64).build());
        }
        events
    }

    /// Asserts the analyzer output is semantically equivalent to the input
    /// on the whole event grid, and that analysis is idempotent.
    fn assert_equivalent(expr: &Expr) {
        let analysis = analyze(expr);
        match &analysis.tree {
            None => {
                assert!(!analysis.report.satisfiable);
                for event in event_grid() {
                    assert!(
                        !expr.evaluate(&event),
                        "rejected as unsatisfiable but {event:?} matches {expr:?}"
                    );
                }
            }
            Some(tree) => {
                for event in event_grid() {
                    assert_eq!(
                        expr.evaluate(&event),
                        tree.evaluate(&event),
                        "normalization changed semantics on {event:?}: {expr:?} vs {:?}",
                        tree.to_expr()
                    );
                }
                let again = Analyzer::new().analyze_tree(tree);
                assert!(
                    !again.report.changed,
                    "analysis is not idempotent on {expr:?}: {:?} -> {:?}",
                    tree.to_expr(),
                    again.tree.map(|t| t.to_expr())
                );
                // What an unchanged analysis hands back by sharing equals
                // what rebuilding the normal form would give.
                assert_eq!(SubscriptionTree::from_expr(&tree.to_expr()), *tree);
            }
        }
    }

    #[test]
    fn flattens_nested_same_kind_nodes() {
        let expr = Expr::And(vec![
            Expr::And(vec![Expr::gt("x", 1i64), Expr::lt("y", 9i64)]),
            Expr::eq("s", "books"),
        ]);
        let out = normalized(&expr);
        match out {
            Expr::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
        assert_equivalent(&expr);
    }

    #[test]
    fn equality_sets_fuse_into_single_level_or() {
        // Or(x=1, Or(x=2, x=3), x=1) fuses into the single-level equality
        // group the counting engine recognizes as an access clause.
        let expr = Expr::Or(vec![
            Expr::eq("x", 1i64),
            Expr::Or(vec![Expr::eq("x", 2i64), Expr::eq("x", 3i64)]),
            Expr::eq("x", 1i64),
        ]);
        let out = normalized(&expr);
        match &out {
            Expr::Or(children) => {
                assert_eq!(children.len(), 3);
                assert!(children
                    .iter()
                    .all(|c| matches!(c, Expr::Pred(p) if p.operator() == Operator::Eq)));
            }
            other => panic!("expected fused Or, got {other:?}"),
        }
        assert_equivalent(&expr);
    }

    #[test]
    fn duplicate_subtrees_are_deduplicated() {
        let branch = Expr::and(vec![Expr::gt("x", 1i64), Expr::lt("y", 9i64)]);
        let expr = Expr::Or(vec![branch.clone(), branch.clone()]);
        assert_eq!(normalized(&expr), branch);
        assert_equivalent(&expr);
    }

    #[test]
    fn redundant_ranges_collapse_to_the_tightest_bound() {
        let expr = Expr::And(vec![
            Expr::gt("x", 3i64),
            Expr::gt("x", 5i64),
            Expr::ge("x", 4i64),
        ]);
        assert_eq!(normalized(&expr), Expr::gt("x", 5i64));
        assert_equivalent(&expr);
    }

    #[test]
    fn absorption_eliminates_the_larger_branch() {
        let p = Expr::eq("x", 5i64);
        let q = Expr::lt("y", 9i64);
        // p ∨ (p ∧ q) ⇒ p
        let expr = Expr::Or(vec![p.clone(), Expr::and(vec![p.clone(), q.clone()])]);
        assert_eq!(normalized(&expr), p);
        assert_equivalent(&expr);
        // p ∧ (p ∨ q) ⇒ p
        let expr = Expr::And(vec![p.clone(), Expr::or(vec![p.clone(), q])]);
        assert_eq!(normalized(&expr), p);
        assert_equivalent(&expr);
    }

    #[test]
    fn interval_contradictions_are_unsatisfiable() {
        let cases = vec![
            Expr::And(vec![Expr::gt("x", 5i64), Expr::lt("x", 3i64)]),
            Expr::And(vec![Expr::ge("x", 5i64), Expr::lt("x", 5i64)]),
            Expr::And(vec![Expr::eq("x", 1i64), Expr::eq("x", 2i64)]),
            Expr::And(vec![Expr::eq("x", 5i64), Expr::eq("x", "a")]),
            Expr::And(vec![Expr::eq("x", true), Expr::eq("x", false)]),
            Expr::And(vec![
                Expr::ge("x", 5i64),
                Expr::le("x", 5i64),
                Expr::ne("x", 5i64),
            ]),
            Expr::And(vec![Expr::prefix("x", "ab"), Expr::prefix("x", "cd")]),
            Expr::And(vec![Expr::eq("x", "books"), Expr::prefix("x", "tool")]),
        ];
        for expr in cases {
            let analysis = analyze(&expr);
            assert!(
                analysis.tree.is_none() && !analysis.report.satisfiable,
                "{expr:?} should be unsatisfiable"
            );
            assert_equivalent(&expr);
        }
    }

    #[test]
    fn contradiction_inside_one_or_branch_only_removes_that_branch() {
        let live = Expr::eq("s", "books");
        let dead = Expr::And(vec![Expr::gt("x", 5i64), Expr::lt("x", 3i64)]);
        let expr = Expr::Or(vec![dead, live.clone()]);
        assert_eq!(normalized(&expr), live);
        assert_equivalent(&expr);
    }

    #[test]
    fn complementary_ranges_are_not_a_tautology() {
        // An event without `x` satisfies neither branch, so Or(x>1, x≤1)
        // must NOT fold to "true" — and must stay satisfiable.
        let expr = Expr::Or(vec![Expr::gt("x", 1i64), Expr::le("x", 1i64)]);
        let analysis = analyze(&expr);
        let tree = analysis.tree.expect("satisfiable");
        assert!(!tree.evaluate(&EventMessage::builder().build()));
        assert!(tree.evaluate(&EventMessage::builder().attr("x", 0i64).build()));
        assert_equivalent(&expr);
    }

    #[test]
    fn statically_false_predicates_fold_away() {
        // `contains` on an integer constant can never be true.
        let dead = Expr::contains("x", 5i64);
        let live = Expr::eq("s", "books");
        let expr = Expr::Or(vec![dead.clone(), live.clone()]);
        let analysis = analyze(&expr);
        assert_eq!(analysis.report.constants_folded, 1);
        assert_eq!(analysis.tree.expect("satisfiable").to_expr(), live);
        assert_equivalent(&expr);

        // NaN comparisons are always false, even `≠`.
        let expr = Expr::ne("x", f64::NAN);
        assert!(analyze(&expr).tree.is_none());
        assert_equivalent(&expr);
    }

    #[test]
    fn negated_false_materializes_as_an_always_true_tree() {
        // Not(contains(x, 5)) matches every event; the analyzer keeps a
        // valid tree for it (negation of the always-false witness).
        let expr = Expr::not(Expr::contains("x", 5i64));
        let analysis = analyze(&expr);
        let tree = analysis.tree.expect("satisfiable");
        for event in event_grid() {
            assert!(tree.evaluate(&event));
        }
        assert_equivalent(&expr);
    }

    #[test]
    fn double_negation_collapses() {
        let inner = Expr::eq("x", 5i64);
        let expr = Expr::not(Expr::not(inner.clone()));
        assert_eq!(normalized(&expr), inner);
        assert_equivalent(&expr);
    }

    #[test]
    fn huge_integers_disable_interval_reasoning() {
        // 2^53 sits where f64 rounding breaks transitivity: Float(2^53)
        // satisfies x ≥ 2^53+1 under mixed comparison. The analyzer must
        // leave such groups alone rather than falsely reject them.
        let big = (1i64 << 53) + 1;
        let expr = Expr::And(vec![Expr::ge("x", big), Expr::le("x", big - 1)]);
        let analysis = analyze(&expr);
        assert!(analysis.report.satisfiable, "must not claim unsat at 2^53");
        let tree = analysis.tree.expect("satisfiable");
        let tricky = EventMessage::builder()
            .attr("x", (1i64 << 53) as f64)
            .build();
        assert!(tree.evaluate(&tricky));
    }

    #[test]
    fn report_counts_nodes_and_changes() {
        let expr = Expr::And(vec![
            Expr::And(vec![Expr::gt("x", 3i64), Expr::gt("x", 5i64)]),
            Expr::gt("x", 4i64),
        ]);
        let analysis = analyze(&expr);
        let report = &analysis.report;
        assert!(report.changed);
        assert!(report.satisfiable);
        assert_eq!(report.nodes_before, 5);
        assert_eq!(report.nodes_after, 1);
        assert_eq!(report.nodes_eliminated(), 4);
        assert!(report.siblings_eliminated >= 2);

        let unchanged = Expr::and(vec![Expr::eq("s", "books"), Expr::lt("x", 5i64)]);
        assert!(!analyze(&unchanged).report.changed);
    }

    #[test]
    fn an_unchanged_tree_comes_back_sharing_its_nodes() {
        let normal = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("s", "books"),
            Expr::lt("x", 5i64),
        ]));
        let analysis = Analyzer::new().analyze_tree(&normal);
        assert!(!analysis.report.changed);
        let back = analysis.tree.expect("satisfiable");
        assert!(back.shares_nodes_with(&normal));

        let redundant = SubscriptionTree::from_expr(&Expr::And(vec![
            Expr::gt("x", 3i64),
            Expr::gt("x", 5i64),
            Expr::eq("s", "books"),
        ]));
        let analysis = Analyzer::new().analyze_tree(&redundant);
        assert!(analysis.report.changed);
        let back = analysis.tree.expect("satisfiable");
        assert!(!back.shares_nodes_with(&redundant));
        assert_ne!(back, redundant);
        // The normal form is a fixed point, handed back as it came in.
        let again = Analyzer::new()
            .analyze_tree(&back)
            .tree
            .expect("satisfiable");
        assert!(again.shares_nodes_with(&back));
    }

    #[test]
    fn analyze_subscription_keeps_identity() {
        let sub = Subscription::from_expr(
            SubscriptionId::from_raw(7),
            SubscriberId::from_raw(3),
            &Expr::And(vec![Expr::gt("x", 3i64), Expr::gt("x", 5i64)]),
        );
        let (normalized, report) = Analyzer::new().analyze_subscription(&sub);
        let normalized = normalized.expect("satisfiable");
        assert_eq!(normalized.id(), sub.id());
        assert_eq!(normalized.subscriber(), sub.subscriber());
        assert!(report.changed);

        let unsat = Subscription::from_expr(
            SubscriptionId::from_raw(8),
            SubscriberId::from_raw(3),
            &Expr::And(vec![Expr::gt("x", 5i64), Expr::lt("x", 3i64)]),
        );
        let (rejected, report) = Analyzer::new().analyze_subscription(&unsat);
        assert!(rejected.is_none());
        assert!(!report.satisfiable);
    }

    #[test]
    fn implies_handles_composite_shapes() {
        let p = Expr::gt("x", 5i64);
        let q = Expr::lt("y", 9i64);
        // Reflexive and predicate coverage.
        assert!(implies(&p, &p));
        assert!(implies(&p, &Expr::gt("x", 3i64)));
        assert!(!implies(&Expr::gt("x", 3i64), &p));
        // Conjunction / disjunction decompositions.
        assert!(implies(&Expr::and(vec![p.clone(), q.clone()]), &p));
        assert!(implies(&p, &Expr::or(vec![p.clone(), q.clone()])));
        assert!(implies(
            &Expr::or(vec![Expr::gt("x", 7i64), Expr::gt("x", 9i64)]),
            &p
        ));
        assert!(!implies(&Expr::or(vec![p.clone(), q.clone()]), &p));
        // Negation inverts direction.
        assert!(implies(
            &Expr::not(Expr::gt("x", 3i64)),
            &Expr::not(p.clone())
        ));
        assert!(!implies(
            &Expr::not(p.clone()),
            &Expr::not(Expr::gt("x", 3i64))
        ));
        // No event-free tautologies: q does not imply Or(x>1, x≤1).
        let fake_tautology = Expr::or(vec![Expr::gt("x", 1i64), Expr::le("x", 1i64)]);
        assert!(!implies(&q, &fake_tautology));
    }

    /// The lemma of [`ImplicationProfile`], checked on one pair.
    fn assert_findable(stronger: &Expr, weaker: &Expr) {
        assert!(implies(stronger, weaker), "{stronger:?} => {weaker:?}");
        let (s, w) = (
            ImplicationProfile::of(stronger),
            ImplicationProfile::of(weaker),
        );
        assert!(s.summary().may_imply(&w.summary()));
        assert!(w.required().iter().all(|attr| s.required().contains(attr)));
        for bound in w.bounded() {
            let own = s
                .bounded()
                .iter()
                .find(|own| own.attr() == bound.attr())
                .expect("bounded by the stronger side too");
            assert!(own
                .probe_keys()
                .iter()
                .any(|key| bound.filing_keys().contains(key)));
        }
    }

    #[test]
    fn implication_profiles_follow_the_rules_of_implies() {
        let books = Expr::eq("s", "books");
        let tools = Expr::eq("s", "tools");
        let cheap = Expr::le("x", 5i64);
        let either = Expr::Or(vec![books.clone(), tools.clone()]);
        assert_findable(&Expr::And(vec![books.clone(), cheap.clone()]), &books);
        assert_findable(&Expr::And(vec![books.clone(), cheap.clone()]), &either);
        assert_findable(&books, &Expr::Or(vec![cheap.clone(), books.clone()]));
        assert_findable(&either, &Expr::Or(vec![tools.clone(), books.clone()]));
        // Both zeros are one constant; an integer and its float twin are not.
        assert_findable(&Expr::eq("x", 0.0f64), &Expr::eq("x", -0.0f64));
        assert!(!implies(&Expr::eq("x", 3i64), &Expr::eq("x", 3.0f64)));
        // A contradiction implies each of its conjuncts, and finds them.
        let neither = Expr::And(vec![books.clone(), tools.clone()]);
        assert_findable(&neither, &books);
        assert_findable(&neither, &tools);

        let profile = ImplicationProfile::of(&Expr::And(vec![either.clone(), cheap.clone()]));
        let (s, x) = (crate::attr::intern("s"), crate::attr::intern("x"));
        let mut required = vec![s, x];
        required.sort_unstable();
        assert_eq!(profile.required(), required);
        assert_eq!(profile.bounded().len(), 1);
        assert_eq!(profile.bounded()[0].attr(), s);
        assert_eq!(profile.bounded()[0].filing_keys().len(), 2);
        assert_eq!(profile.bounded()[0].probe_keys().len(), 1);
        // A disjunction requires and bounds what all its branches do.
        let mixed = ImplicationProfile::of(&Expr::Or(vec![books.clone(), cheap.clone()]));
        assert!(mixed.required().is_empty() && mixed.bounded().is_empty());
        assert_eq!(ImplicationProfile::of(&Expr::not(books.clone())), mixed);
    }

    #[test]
    fn summaries_refuse_what_cannot_imply() {
        assert_eq!(std::mem::size_of::<ImplicationSummary>(), 40);
        let of = ImplicationSummary::of;
        let books = Expr::eq("s", "books");
        let cheap_books = Expr::And(vec![books.clone(), Expr::le("x", 5i64)]);
        // The weaker side requires an attribute the stronger does not.
        assert!(!of(&books).may_imply(&of(&cheap_books)));
        assert!(of(&cheap_books).may_imply(&of(&books)));
        // It bounds an attribute the stronger side leaves open.
        assert!(!of(&Expr::le("s", "books")).may_imply(&of(&books)));
        // Its constants do not include the stronger side's.
        assert!(!of(&books).may_imply(&of(&Expr::eq("s", "tools"))));
        assert!(!of(&Expr::Or(vec![books.clone(), Expr::eq("s", "tools")])).may_imply(&of(&books)));
    }

    #[test]
    fn subsumes_works_beyond_conjunctive_trees() {
        let general = SubscriptionTree::from_expr(&Expr::or(vec![
            Expr::eq("s", "books"),
            Expr::gt("x", 3i64),
        ]));
        let specific = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("s", "books"),
            Expr::lt("y", 9i64),
        ]));
        assert!(subsumes(&general, &specific));
        assert!(!subsumes(&specific, &general));
    }

    #[test]
    fn fingerprints_are_commutative_over_siblings() {
        let a = Expr::gt("x", 5i64);
        let b = Expr::eq("s", "books");
        let ab = Expr::And(vec![a.clone(), b.clone()]);
        let ba = Expr::And(vec![b.clone(), a.clone()]);
        assert_eq!(expr_fingerprint(&ab), expr_fingerprint(&ba));
        let or = Expr::Or(vec![a.clone(), b.clone()]);
        assert_ne!(expr_fingerprint(&ab), expr_fingerprint(&or));
        assert_ne!(expr_fingerprint(&a), expr_fingerprint(&b));
        assert_eq!(
            tree_fingerprint(&SubscriptionTree::from_expr(&ab)),
            expr_fingerprint(&ab)
        );
    }

    #[test]
    fn bottom_up_combiners_agree_with_expr_fingerprint() {
        let a = Expr::gt("x", 5i64);
        let b = Expr::eq("s", "books");
        let c = Expr::le("y", 2.5f64);
        let (pa, pb, pc) = match (&a, &b, &c) {
            (Expr::Pred(pa), Expr::Pred(pb), Expr::Pred(pc)) => (pa, pb, pc),
            _ => unreachable!("builders return predicates"),
        };
        let (fa, fb, fc) = (
            predicate_fingerprint(pa),
            predicate_fingerprint(pb),
            predicate_fingerprint(pc),
        );
        assert_eq!(fa, expr_fingerprint(&a));
        // And(a, Or(b, c)) and Not(a), folded bottom-up, must match the
        // recursive fingerprint — and stay child-order insensitive.
        let or_bc = Expr::Or(vec![b.clone(), c.clone()]);
        let expr = Expr::And(vec![a.clone(), or_bc.clone()]);
        let or_fp = or_fingerprint(&[fb, fc]);
        assert_eq!(or_fp, or_fingerprint(&[fc, fb]));
        assert_eq!(or_fp, expr_fingerprint(&or_bc));
        assert_eq!(and_fingerprint(&[fa, or_fp]), expr_fingerprint(&expr));
        assert_eq!(not_fingerprint(fa), expr_fingerprint(&Expr::not(a.clone())));
        assert_ne!(and_fingerprint(&[fa, fb]), or_fingerprint(&[fa, fb]));
    }

    #[test]
    fn wide_nodes_still_drop_exact_duplicates() {
        let mut children = Vec::new();
        for i in 0..(PAIRWISE_CAP as i64 + 10) {
            children.push(Expr::eq("x", i % 7));
        }
        let expr = Expr::Or(children);
        let out = normalized(&expr);
        match out {
            Expr::Or(children) => assert_eq!(children.len(), 7),
            other => panic!("expected Or, got {other:?}"),
        }
        assert_equivalent(&expr);
    }

    #[test]
    fn selectivity_oracle_orders_conjuncts_most_selective_first() {
        let oracle = |p: &Predicate| match p.constant() {
            Value::Int(i) => (*i as f64) / 100.0,
            _ => 0.5,
        };
        let rare = Expr::gt("x", 5i64); // selectivity 0.05
        let common = Expr::gt("y", 90i64); // selectivity 0.90
        let expr = Expr::And(vec![common.clone(), rare.clone()]);
        let tree = SubscriptionTree::from_expr(&expr);
        let analysis = Analyzer::new()
            .with_selectivity(&oracle)
            .analyze_tree(&tree);
        assert!(analysis.report.reordered);
        assert_eq!(
            analysis.tree.expect("satisfiable").to_expr(),
            Expr::And(vec![rare.clone(), common.clone()])
        );
        // Disjunctions go the other way: most likely branch first.
        let expr = Expr::Or(vec![rare, common]);
        let tree = SubscriptionTree::from_expr(&expr);
        let analysis = Analyzer::new()
            .with_selectivity(&oracle)
            .analyze_tree(&tree);
        let Expr::Or(children) = analysis.tree.expect("satisfiable").to_expr() else {
            panic!("expected Or to survive");
        };
        assert_eq!(children[0], Expr::gt("y", 90i64));
    }

    #[test]
    fn equivalence_holds_on_a_gauntlet_of_tricky_shapes() {
        let shapes = vec![
            Expr::not(Expr::and(vec![Expr::gt("x", 5i64), Expr::lt("x", 3i64)])),
            Expr::not(Expr::or(vec![
                Expr::contains("x", 5i64),
                Expr::eq("x", 1i64),
            ])),
            Expr::Or(vec![
                Expr::And(vec![Expr::ge("x", 1i64), Expr::ge("x", 1i64)]),
                Expr::not(Expr::eq("x", true)),
            ]),
            Expr::And(vec![
                Expr::Or(vec![Expr::eq("x", 1i64), Expr::eq("x", 2i64)]),
                Expr::Or(vec![Expr::eq("x", 2i64), Expr::eq("x", 1i64)]),
            ]),
            Expr::And(vec![
                Expr::prefix("x", "bo"),
                Expr::prefix("x", "boo"),
                Expr::eq("x", "books"),
            ]),
            Expr::Or(vec![
                Expr::le("x", 1i64),
                Expr::le("x", 3i64),
                Expr::le("x", 5i64),
            ]),
            Expr::And(vec![
                Expr::ne("x", 5i64),
                Expr::ne("x", 5i64),
                Expr::gt("x", 4i64),
            ]),
        ];
        for expr in shapes {
            assert_equivalent(&expr);
        }
    }
}
