//! Strongly-typed identifiers used throughout the workspace.
//!
//! Each identifier is a thin newtype over an integer. Using distinct types
//! (instead of bare `u64`/`u32`) prevents mixing up, say, a broker id with a
//! subscription id when wiring the distributed simulation together.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value of this identifier.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Creates an identifier from a raw integer value.
            #[inline]
            pub const fn from_raw(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            fn from(id: $name) -> Self {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of a registered subscription.
    ///
    /// Subscription identifiers are assigned by the broker (or, in the
    /// centralized experiments, by the matching engine) at registration time
    /// and stay stable across pruning operations: pruning replaces the
    /// subscription's *tree* but never its identity.
    SubscriptionId,
    u64,
    "sub-"
);

id_type!(
    /// Identifier of a subscriber (a client connected to some broker).
    SubscriberId,
    u64,
    "client-"
);

id_type!(
    /// Identifier of a broker in the distributed topology.
    BrokerId,
    u32,
    "broker-"
);

id_type!(
    /// Identifier of a published event message.
    EventId,
    u64,
    "event-"
);

/// Index of a node inside a [`SubscriptionTree`](crate::SubscriptionTree) arena.
///
/// Node ids are only meaningful relative to the tree that produced them; they
/// are invalidated by [`SubscriptionTree::prune`](crate::SubscriptionTree::prune),
/// which returns a freshly compacted tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index of this node id.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a raw index.
    ///
    /// # Panics
    /// Panics if `index` does not fit into `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("node index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn subscription_id_roundtrip() {
        let id = SubscriptionId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(SubscriptionId::from(42u64), id);
        assert_eq!(id.to_string(), "sub-42");
    }

    #[test]
    fn broker_id_display_and_ordering() {
        let a = BrokerId::from_raw(1);
        let b = BrokerId::from_raw(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "broker-1");
        assert_eq!(b.to_string(), "broker-2");
    }

    #[test]
    fn event_and_subscriber_ids_are_distinct_types() {
        // This is a compile-time property; here we just check value semantics.
        let e = EventId::from_raw(7);
        let s = SubscriberId::from_raw(7);
        assert_eq!(e.raw(), s.raw());
        assert_eq!(e.to_string(), "event-7");
        assert_eq!(s.to_string(), "client-7");
    }

    #[test]
    fn node_id_index_roundtrip() {
        let n = NodeId::from_index(13);
        assert_eq!(n.index(), 13);
        assert_eq!(n.to_string(), "node-13");
    }

    #[test]
    fn ids_are_hashable_and_unique_in_sets() {
        let mut set = HashSet::new();
        for i in 0..100u64 {
            set.insert(SubscriptionId::from_raw(i));
        }
        assert_eq!(set.len(), 100);
        assert!(set.contains(&SubscriptionId::from_raw(99)));
        assert!(!set.contains(&SubscriptionId::from_raw(100)));
    }
}
