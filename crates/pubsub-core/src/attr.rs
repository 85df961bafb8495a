//! The attribute-name interner (`AttrTable`).
//!
//! Attribute names appear on every event attribute, every predicate, and
//! every index probe. Hashing and comparing owned strings on the matching hot
//! path is wasted work: the set of attribute names in a deployment is tiny
//! (an event schema has tens of attributes) while events arrive by the
//! million. The interner assigns every distinct attribute name a dense
//! [`AttrId`] exactly once — at event-build or subscription-registration time
//! — so the hot path only ever touches `u32`s and can index flat arrays.
//!
//! The table is process-global and append-only: once interned, a name keeps
//! its id for the lifetime of the process, and every component (workload
//! generators, brokers, matching engines) automatically agrees on the
//! mapping. Interned names are stored with `'static` lifetime (the backing
//! storage is intentionally leaked; the name set is bounded by the schema, so
//! this is a few hundred bytes, not a leak that grows with traffic).
//!
//! Hot-path guarantee: [`name`] and [`lookup`] take an uncontended read lock
//! (a single atomic operation); [`intern`] only takes the write lock on the
//! first sighting of a name. Code on the matching path should carry
//! [`AttrId`]s and never call into this module at all.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// Dense identifier of an interned attribute name.
///
/// Ids are assigned in first-interning order, starting at 0, with no gaps —
/// which is what lets the filtering index replace `HashMap<String, _>` with a
/// plain `Vec` indexed by `AttrId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

impl AttrId {
    /// Returns the raw integer value of this id.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns this id as a `usize` index into dense per-attribute tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr-{}", self.0)
    }
}

#[derive(Debug, Default)]
struct AttrTable {
    names: Vec<&'static str>,
    by_name: HashMap<&'static str, u32>,
}

static TABLE: OnceLock<RwLock<AttrTable>> = OnceLock::new();

fn table() -> &'static RwLock<AttrTable> {
    TABLE.get_or_init(|| RwLock::new(AttrTable::default()))
}

/// Interns `name`, returning its dense id.
///
/// The first call for a given name takes the write lock and allocates; every
/// later call is a read-locked hash lookup. Call this at build/registration
/// time, never per matched event.
pub fn intern(name: &str) -> AttrId {
    {
        let t = table().read().expect("attribute table poisoned");
        if let Some(&id) = t.by_name.get(name) {
            return AttrId(id);
        }
    }
    let mut t = table().write().expect("attribute table poisoned");
    if let Some(&id) = t.by_name.get(name) {
        return AttrId(id);
    }
    let id = u32::try_from(t.names.len()).expect("attribute table exceeds u32 range");
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    AttrId(id)
}

/// Looks up the id of an already interned name without interning it.
///
/// Returns `None` for names no component has ever used — which also means no
/// predicate or event in the process can refer to them.
pub fn lookup(name: &str) -> Option<AttrId> {
    let t = table().read().expect("attribute table poisoned");
    t.by_name.get(name).map(|&id| AttrId(id))
}

/// Returns the interned name of `id`.
///
/// # Panics
/// Panics if `id` was not produced by [`intern`] in this process.
pub fn name(id: AttrId) -> &'static str {
    let t = table().read().expect("attribute table poisoned");
    t.names
        .get(id.index())
        .copied()
        .expect("AttrId not produced by this process's attribute table")
}

/// Number of distinct attribute names interned so far (monotonically
/// increasing). Dense per-attribute tables can use this as a capacity hint.
pub fn interned_count() -> usize {
    let t = table().read().expect("attribute table poisoned");
    t.names.len()
}

/// A read handle over the attribute table that resolves many ids under a
/// single lock acquisition.
///
/// [`name`] takes the table's read lock per call; code that resolves several
/// ids in a row (e.g. a binary search over name-sorted event entries) obtains
/// one [`resolver`] instead. The handle holds the read lock: do **not** call
/// [`intern`] while it is alive, and drop it promptly.
#[derive(Debug)]
pub struct Resolver {
    guard: std::sync::RwLockReadGuard<'static, AttrTable>,
}

impl Resolver {
    /// Returns the interned name of `id` without re-locking.
    ///
    /// # Panics
    /// Panics if `id` was not produced by [`intern`] in this process.
    #[inline]
    pub fn name(&self, id: AttrId) -> &'static str {
        self.guard
            .names
            .get(id.index())
            .copied()
            .expect("AttrId not produced by this process's attribute table")
    }
}

/// Acquires a [`Resolver`] over the current attribute table.
pub fn resolver() -> Resolver {
    Resolver {
        guard: table().read().expect("attribute table poisoned"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a = intern("attr_test_alpha");
        let b = intern("attr_test_beta");
        assert_ne!(a, b);
        assert_eq!(intern("attr_test_alpha"), a);
        assert_eq!(intern("attr_test_beta"), b);
        assert_eq!(name(a), "attr_test_alpha");
        assert_eq!(name(b), "attr_test_beta");
        assert_eq!(lookup("attr_test_alpha"), Some(a));
    }

    #[test]
    fn lookup_does_not_intern() {
        let before = interned_count();
        assert_eq!(lookup("attr_test_never_interned_gamma"), None);
        assert_eq!(interned_count(), before);
    }

    #[test]
    fn ids_index_densely() {
        let id = intern("attr_test_delta");
        assert!(id.index() < interned_count());
        assert_eq!(id.raw() as usize, id.index());
        assert_eq!(id.to_string(), format!("attr-{}", id.raw()));
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mine = intern(&format!("attr_test_thread_{}", i % 4));
                    (i % 4, mine)
                })
            })
            .collect();
        let mut seen: std::collections::HashMap<usize, AttrId> = std::collections::HashMap::new();
        for h in handles {
            let (key, id) = h.join().unwrap();
            if let Some(prev) = seen.insert(key, id) {
                assert_eq!(prev, id, "same name interned to different ids");
            }
        }
    }
}
