//! Sorted-vector map and set: [`FlatMap`] and [`FlatSet`].
//!
//! Both keep their entries in one contiguous vector sorted by key. Lookup
//! is a binary search (`O(log n)` like the `BTreeMap`/`BTreeSet` they
//! replace, but without chasing per-entry heap nodes); insert and remove
//! shift the tail (`O(n)` worst case, cheap at the sizes seen here: a
//! node's children or pending phases, a registry's metric names, a run's
//! query ids). Iteration is ascending by key, as in the B-tree
//! collections they replace, and a `FlatMap` also compares and prints
//! like a `BTreeMap`.

use std::borrow::Borrow;
use std::fmt;

/// A map stored as a single sorted vector of `(key, value)` pairs.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the map can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Removes all entries, keeping capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Frees the map's storage when it holds no entries: a map of in-flight
    /// work then costs no memory once that work drains.
    pub fn release_if_empty(&mut self) {
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
    }

    #[inline]
    fn position<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// The value for `key`, if present. The key is borrowed like
    /// `BTreeMap::get`'s: a `FlatMap<&'static str, V>` is searched with any
    /// `&str`, by content.
    #[inline]
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_ok()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value for `key`, inserting `default()` first if absent
    /// (`BTreeMap::entry(k).or_insert_with(f)` equivalent).
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Mutable values in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only entries for which the predicate holds.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| pred(k, v));
    }
}

impl<V> FlatMap<&'static str, V> {
    /// The value for `name`, inserting `default()` first if absent: the
    /// hot-path lookup of a registry keyed by string literals, where the
    /// same few names are bumped on every transmission. The stored keys
    /// are first scanned by address, so a literal finds its own entry
    /// without comparing bytes. A miss falls back to the binary search by
    /// content, so an equal name stored at another address (a literal
    /// the compiler copied into another codegen unit, or a leaked string)
    /// still finds the same entry.
    pub(crate) fn or_insert_with_name(
        &mut self,
        name: &'static str,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        match self
            .entries
            .iter()
            .position(|&(k, _)| std::ptr::eq(k, name))
        {
            Some(i) => &mut self.entries[i].1,
            None => self.or_insert_with(name, default),
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// A set stored as a single sorted vector. See [`FlatMap`] for the
/// layout/complexity trade-off; iteration is ascending, matching
/// `BTreeSet`.
#[derive(Debug, Clone, Default)]
pub struct FlatSet<K> {
    items: Vec<K>,
}

impl<K: Ord + Copy> FlatSet<K> {
    /// An empty set (no allocation until the first insert).
    pub fn new() -> Self {
        FlatSet { items: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `key` is a member.
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.items.binary_search(key).is_ok()
    }

    /// Inserts `key`; returns `true` if it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        match self.items.binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, key);
                true
            }
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.items.binary_search(key) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.items.iter()
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn flat_map_matches_btreemap_semantics() {
        let mut flat: FlatMap<u32, i64> = FlatMap::new();
        let mut tree: BTreeMap<u32, i64> = BTreeMap::new();
        // Deterministic scrambled workload of inserts/removes/updates.
        let mut x: u64 = 0x243F6A8885A308D3;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 64;
            match step % 4 {
                0 | 1 => {
                    assert_eq!(flat.insert(key, step), tree.insert(key, step));
                }
                2 => {
                    assert_eq!(flat.remove(&key), tree.remove(&key));
                }
                _ => {
                    *flat.or_insert_with(key, || -1) += 1;
                    *tree.entry(key).or_insert(-1) += 1;
                }
            }
            assert_eq!(flat.get(&key), tree.get(&key));
            assert_eq!(flat.len(), tree.len());
        }
        // Iteration order must be identical (ascending by key).
        let a: Vec<_> = flat.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
        let ka: Vec<_> = flat.keys().copied().collect();
        let kb: Vec<_> = tree.keys().copied().collect();
        assert_eq!(ka, kb);
        assert_eq!(format!("{flat:?}"), format!("{tree:?}"));
    }

    #[test]
    fn flat_map_mutation_helpers() {
        let mut m: FlatMap<u8, Vec<u8>> = FlatMap::new();
        m.or_insert_with(2, Vec::new).push(9);
        m.or_insert_with(2, Vec::new).push(8);
        assert_eq!(m.get(&2), Some(&vec![9, 8]));
        *m.get_mut(&2).unwrap() = vec![7];
        assert!(m.contains_key(&2));
        m.insert(1, vec![1]);
        m.insert(3, vec![3]);
        m.retain(|k, _| *k != 2);
        let keys: Vec<_> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3]);
        for (_, v) in m.iter_mut() {
            v.push(0);
        }
        assert_eq!(m.values().map(Vec::len).sum::<usize>(), 4);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn flat_set_matches_btreeset_semantics() {
        let mut flat: FlatSet<u32> = FlatSet::new();
        let mut tree: BTreeSet<u32> = BTreeSet::new();
        let mut x: u64 = 0x13198A2E03707344;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 48;
            if step % 3 == 0 {
                assert_eq!(flat.remove(&key), tree.remove(&key));
            } else {
                assert_eq!(flat.insert(key), tree.insert(key));
            }
            assert_eq!(flat.contains(&key), tree.contains(&key));
            assert_eq!(flat.len(), tree.len());
        }
        let a: Vec<_> = flat.iter().copied().collect();
        let b: Vec<_> = tree.iter().copied().collect();
        assert_eq!(a, b);
        flat.clear();
        assert!(flat.is_empty());
    }
}
