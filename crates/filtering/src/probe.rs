//! Stage 1 of the staged matching pipeline: batch-aware index probing.
//!
//! The per-event probe ([`AttributeIndex::fulfilled_pairs`]) walks one
//! event's attribute pairs and, for each pair, hashes into the equality
//! index and binary-searches the four interval classes. Across a batch this
//! repeats the same lookups over and over: most events of an auction
//! workload carry the same handful of attributes, and hot keys repeat the
//! same *values* too.
//!
//! A [`ProbePlan`] turns the loop inside out. The batch is transposed by
//! attribute ([`AttrGroups`]); within one attribute group the event values
//! are sorted by strict identity (bit pattern for numbers, content for
//! strings — never across type tags, so no equality semantics are invented
//! here), and each *run* of identical values is probed **once**: one
//! equality-bucket hash lookup, four interval binary searches, one scan-list
//! evaluation — then the resulting predicate keys are emitted for every
//! event of the run. With `k` distinct values in a group of `m` entries,
//! the probe cost drops from `m` lookups to `k`.
//!
//! The stage-0 pre-filter is applied *at emission time*: an `(event, key)`
//! emission whose owning subscription is dead for that event (see
//! [`PreFilter`]) is counted and dropped before it ever reaches the
//! counting arrays. Surviving emissions are counting-sorted into a per-event
//! CSR layout, and stage 2 consumes each event's contiguous slice exactly as
//! it would consume the per-event probe's callbacks — emission *order*
//! differs, but stage 2 is order-insensitive, so match output is
//! byte-identical.

use crate::index::{AttributeIndex, EqKey, PredicateKey, SubSlot};
use crate::prefilter::PreFilter;
use pubsub_core::{AttrGroups, EventBatch, NodeId, Value};
use std::cmp::Ordering;

/// Reusable scratch for probing one [`EventBatch`] through an
/// [`AttributeIndex`] attribute-by-attribute instead of event-by-event.
///
/// All buffers are grow-only and reused across batches; a plan held by an
/// engine allocates during warm-up and then runs allocation-free.
#[derive(Debug, Default)]
pub struct ProbePlan {
    /// The batch transposed by attribute.
    groups: AttrGroups,
    /// Stage-0 presence bitmask per event (only filled when the pre-filter
    /// is enabled).
    masks: Vec<u64>,
    /// Stage-0 interned keys, event-major: event `i` owns
    /// `keys[i*tracked .. (i+1)*tracked]`.
    keys: Vec<u32>,
    /// Scratch for one event's fingerprint keys.
    fp_scratch: Vec<u32>,
    /// Permutation of one attribute group's entries, sorted by value.
    order: Vec<u32>,
    /// Surviving `(event, key)` emissions, in probe order.
    emissions: Vec<(u32, PredicateKey)>,
    /// Per-event emission counts, reused as scatter cursors.
    counts: Vec<u32>,
    /// Emissions counting-sorted by event (CSR payload).
    sorted: Vec<PredicateKey>,
    /// CSR offsets into `sorted`; length `events + 1`.
    offsets: Vec<u32>,
}

impl ProbePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probes the whole batch, leaving each event's fulfilled predicate keys
    /// readable via [`emitted`](Self::emitted). Requires the index's pending
    /// interval insertions to be merged (`AttributeIndex::ensure_built`): the
    /// plan slices the sorted arrays and never looks at a pending tail. Every
    /// emission suppressed by the pre-filter increments `killed`.
    pub(crate) fn run(
        &mut self,
        batch: &EventBatch,
        index: &AttributeIndex,
        prefilter: &PreFilter,
        killed: &mut u64,
    ) {
        let Self {
            groups,
            masks,
            keys,
            fp_scratch,
            order,
            emissions,
            counts,
            sorted,
            offsets,
        } = self;
        debug_assert!(index.is_built(), "probe plan run over a pending tail");
        let n = batch.len();
        let pf_on = prefilter.enabled();
        let tracked = prefilter.key_width();

        groups.group(batch);

        // Fingerprint every event up front: each event is fingerprinted once
        // even though its emissions are scattered across attribute groups.
        masks.clear();
        keys.clear();
        if pf_on {
            for i in 0..n {
                masks.push(prefilter.fingerprint(batch.resolved(i), fp_scratch));
                keys.extend_from_slice(fp_scratch);
            }
        }

        emissions.clear();
        let arena = batch.arena_pairs();
        // A group's entry count is bounded by the arena width, so one
        // reservation keeps the per-group permutation allocation-free.
        order.reserve(arena.len());
        for gi in 0..groups.len() {
            let Some(buckets) = index.buckets(groups.attrs()[gi]) else {
                continue;
            };
            let entries = groups.entries(gi);
            let value_of = |oi: u32| -> &Value { &arena[entries[oi as usize].1 as usize].1 };
            order.clear();
            order.extend(0..entries.len() as u32);
            order.sort_unstable_by(|&x, &y| value_order(value_of(x), value_of(y)));

            let mut start = 0usize;
            while start < entries.len() {
                let rep = value_of(order[start]);
                let mut end = start + 1;
                while end < entries.len() && value_identical(rep, value_of(order[end])) {
                    end += 1;
                }
                let run = &order[start..end];
                // One probe per distinct value; emissions fan out over the
                // run's events, with the stage-0 kill applied per pair.
                let mut emit = |ks: &[PredicateKey]| {
                    for &k in ks {
                        let slot = k.slot.index();
                        for &oi in run {
                            let ev = entries[oi as usize].0;
                            if pf_on
                                && prefilter.kills(
                                    slot,
                                    masks[ev as usize],
                                    &keys[ev as usize * tracked..(ev as usize + 1) * tracked],
                                )
                            {
                                *killed += 1;
                            } else {
                                emissions.push((ev, k));
                            }
                        }
                    }
                };
                if let Some(eq_key) = EqKey::from_value(rep) {
                    if let Some(ks) = buckets.equality.get(&eq_key) {
                        emit(ks);
                    }
                }
                if let Some(v) = rep.as_f64() {
                    if !v.is_nan() {
                        // Same partitions as the per-event probe; see
                        // `AttributeIndex::fulfilled_pairs` for the class
                        // semantics.
                        let lt = buckets.lt.partition(|t| t <= v);
                        emit(&buckets.lt.sorted_keys()[lt..]);
                        let le = buckets.le.partition(|t| t < v);
                        emit(&buckets.le.sorted_keys()[le..]);
                        let gt = buckets.gt.partition(|t| t < v);
                        emit(&buckets.gt.sorted_keys()[..gt]);
                        let ge = buckets.ge.partition(|t| t <= v);
                        emit(&buckets.ge.sorted_keys()[..ge]);
                    }
                }
                for (predicate, k) in &buckets.scan {
                    // Identical values give identical answers, so the run's
                    // representative decides for every event of the run.
                    if predicate.evaluate_value(rep) {
                        emit(std::slice::from_ref(k));
                    }
                }
                start = end;
            }
        }

        // Counting-sort the emissions into per-event CSR slices.
        counts.clear();
        counts.resize(n, 0);
        for &(ev, _) in emissions.iter() {
            counts[ev as usize] += 1;
        }
        offsets.clear();
        offsets.resize(n + 1, 0);
        let mut sum = 0u32;
        for i in 0..n {
            offsets[i] = sum;
            sum += counts[i];
            counts[i] = offsets[i]; // reuse as scatter cursor
        }
        offsets[n] = sum;
        // Mirror the push-doubled `emissions` capacity rather than sizing to
        // the exact count: any batch whose emissions fit the (amortized)
        // emission buffer then also fits here, so the CSR payload does not
        // reallocate on the first slightly-larger batch after warm-up.
        sorted.clear();
        sorted.resize(
            emissions.capacity().max(emissions.len()),
            PredicateKey::new(SubSlot(0), NodeId(0)),
        );
        for &(ev, k) in emissions.iter() {
            let cursor = &mut counts[ev as usize];
            sorted[*cursor as usize] = k;
            *cursor += 1;
        }
    }

    /// The fulfilled predicate keys of event `i` from the last
    /// [`run`](Self::run), pre-filter already applied.
    pub(crate) fn emitted(&self, i: usize) -> &[PredicateKey] {
        &self.sorted[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Bytes of heap held by the plan's scratch buffers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.groups.capacity()
            + self.masks.capacity() * size_of::<u64>()
            + (self.keys.capacity() + self.fp_scratch.capacity() + self.order.capacity())
                * size_of::<u32>()
            + self.emissions.capacity() * size_of::<(u32, PredicateKey)>()
            + (self.counts.capacity() + self.offsets.capacity()) * size_of::<u32>()
            + self.sorted.capacity() * size_of::<PredicateKey>()
    }
}

/// Total order over values by strict identity: type tag first, then bit
/// pattern (numbers) or content (strings). Deliberately *stricter* than
/// engine equality — `Int(3)` and `Float(3.0)` land in different runs and
/// are probed separately, so no cross-type unification is assumed here.
fn value_order(a: &Value, b: &Value) -> Ordering {
    fn tag(v: &Value) -> u8 {
        match v {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.to_bits().cmp(&y.to_bits()),
        (Value::Str(x), Value::Str(y)) => x.as_ref().cmp(y.as_ref()),
        _ => tag(a).cmp(&tag(b)),
    }
}

fn value_identical(a: &Value, b: &Value) -> bool {
    value_order(a, b) == Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Operator, Predicate};

    fn event(price: i64, category: &str) -> EventMessage {
        EventMessage::builder()
            .attr("probe_price", price)
            .attr("probe_cat", category)
            .build()
    }

    fn key(slot: u32, node: u32) -> PredicateKey {
        PredicateKey::new(SubSlot(slot), NodeId(node))
    }

    #[test]
    fn batch_probe_agrees_with_per_event_probe() {
        let mut idx = AttributeIndex::new();
        idx.insert(
            &Predicate::new("probe_cat", Operator::Eq, "books"),
            key(0, 0),
        );
        idx.insert(
            &Predicate::new("probe_price", Operator::Le, 10i64),
            key(1, 0),
        );
        idx.insert(
            &Predicate::new("probe_price", Operator::Gt, 5i64),
            key(2, 0),
        );
        idx.insert(
            &Predicate::new("probe_cat", Operator::Prefix, "bo"),
            key(3, 0),
        );
        idx.ensure_built();

        let events = [
            event(3, "books"),
            event(7, "music"),
            event(7, "books"),
            event(20, "board games"),
        ];
        let mut batch = EventBatch::new();
        for ev in &events {
            batch.push(ev.clone());
        }

        let mut plan = ProbePlan::new();
        let prefilter = PreFilter::new();
        let mut killed = 0u64;
        plan.run(&batch, &idx, &prefilter, &mut killed);
        assert_eq!(killed, 0);

        for (i, ev) in events.iter().enumerate() {
            let mut expected = idx.fulfilled_keys(ev);
            expected.sort();
            let mut got = plan.emitted(i).to_vec();
            got.sort();
            assert_eq!(got, expected, "event {i}");
        }
    }

    #[test]
    fn runs_share_probes_but_not_equality_semantics() {
        // Int(3) and Float(3.0) are distinct runs but both must hit the
        // shared equality bucket, exactly like the per-event probe.
        let mut idx = AttributeIndex::new();
        idx.insert(
            &Predicate::new("probe_num", Operator::Eq, 3.0f64),
            key(0, 0),
        );
        idx.ensure_built();
        let mut batch = EventBatch::new();
        batch.push(EventMessage::builder().attr("probe_num", 3i64).build());
        batch.push(EventMessage::builder().attr("probe_num", 3.0f64).build());
        let mut plan = ProbePlan::new();
        let mut killed = 0u64;
        plan.run(&batch, &idx, &PreFilter::new(), &mut killed);
        assert_eq!(plan.emitted(0), &[key(0, 0)]);
        assert_eq!(plan.emitted(1), &[key(0, 0)]);
    }

    #[test]
    fn empty_batches_and_eventless_attributes_are_handled() {
        let mut idx = AttributeIndex::new();
        idx.insert(
            &Predicate::new("probe_price", Operator::Ge, 1i64),
            key(0, 0),
        );
        idx.ensure_built();
        let batch = EventBatch::new();
        let mut plan = ProbePlan::new();
        let mut killed = 0u64;
        plan.run(&batch, &idx, &PreFilter::new(), &mut killed);
        assert_eq!(killed, 0);

        // An event with no attributes emits nothing but still owns a slice.
        let mut batch = EventBatch::new();
        batch.push(EventMessage::builder().build());
        batch.push(event(4, "books"));
        plan.run(&batch, &idx, &PreFilter::new(), &mut killed);
        assert!(plan.emitted(0).is_empty());
        assert_eq!(plan.emitted(1), &[key(0, 0)]);
    }
}
