//! [`NodeSet`]: a dense bitmap over node ids, the one representation of
//! every match set the serving protocol carries.
//!
//! Node ids are dense `0..n`, so a set is one bit per id. Union — the
//! convergecast's only merge step — is a word-wise OR with no ordering or
//! deduplication pass, and iteration yields ids in ascending order for
//! free. A set's words never end in a zero word, so the derived equality
//! is set equality.

use elink_topology::NodeId;
use std::fmt;

const WORD_BITS: usize = u64::BITS as usize;

/// A set of node ids stored as a bitmap: bit `v % 64` of word `v / 64` is
/// set iff `v` is a member.
///
/// A set grows to the largest id it holds (a full set over `n` nodes is
/// `n / 8` bytes). `Debug` prints the ascending ids as a list, exactly as
/// the equivalent sorted `Vec<NodeId>` would.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    /// Never ends in a zero word.
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> NodeSet {
        NodeSet::default()
    }

    /// The set of the given ids (any order, duplicates allowed).
    pub fn from_ids(ids: &[NodeId]) -> NodeSet {
        let mut set = NodeSet::new();
        for &v in ids {
            set.insert(v);
        }
        set
    }

    /// Adds `v` to the set.
    // simlint: hot
    pub fn insert(&mut self, v: NodeId) {
        let w = v / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (v % WORD_BITS);
    }

    /// Adds every member of `other` to the set.
    // simlint: hot
    pub fn union(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The members of `self` that are not in `other`.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut words: Vec<u64> = self
            .words
            .iter()
            .enumerate()
            .map(|(i, &a)| a & !other.words.get(i).copied().unwrap_or(0))
            .collect();
        while words.last() == Some(&0) {
            words.pop();
        }
        NodeSet { words }
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v / WORD_BITS)
            .is_some_and(|&w| w & (1 << (v % WORD_BITS)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| Bits {
            word: w,
            base: i * WORD_BITS,
        })
    }

    /// The members as an ascending vector, allocated at its exact length.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.len());
        ids.extend(self.iter());
        ids
    }
}

/// The set bits of one word, lowest first, offset by `base`.
struct Bits {
    word: u64,
    base: usize,
}

impl Iterator for Bits {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl PartialEq<Vec<NodeId>> for NodeSet {
    /// Whether the set holds exactly the ids of an ascending,
    /// duplicate-free vector.
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
