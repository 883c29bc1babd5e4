//! Compact bitset over data-flow graph nodes.
//!
//! Custom-instruction candidates are subsets of a DFG's nodes; enumeration
//! algorithms manipulate millions of them, so the representation is a plain
//! `Vec<u64>` bitset with set-algebra operations.

use crate::dfg::NodeId;
use std::fmt;

/// A set of [`NodeId`]s, stored as a fixed-capacity bitset.
///
/// All sets participating in one computation should be created with the same
/// capacity (the node count of the owning [`crate::dfg::Dfg`]); binary
/// operations panic on capacity mismatch to catch cross-graph mixups early.
///
/// # Example
///
/// ```
/// use rtise_ir::nodeset::NodeSet;
/// use rtise_ir::dfg::NodeId;
///
/// let mut s = NodeSet::with_capacity(100);
/// s.insert(NodeId(3));
/// s.insert(NodeId(64));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(NodeId(64)));
/// assert!(!s.contains(NodeId(65)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
}

impl NodeSet {
    /// Creates an empty set able to hold node ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity (exclusive upper bound on storable node ids).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts a node. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of capacity.
    pub fn insert(&mut self, id: NodeId) -> bool {
        assert!(id.0 < self.capacity, "node id {} out of capacity", id.0);
        let (w, b) = (id.0 / 64, id.0 % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes a node. Returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        let (w, b) = (id.0 / 64, id.0 % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.capacity && self.words[id.0 / 64] & (1 << (id.0 % 64)) != 0
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether the two sets share at least one node.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates the member node ids in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// The raw bit words backing the set (bit `i % 64` of word `i / 64`
    /// is node `i`). Lets word-level fast paths read a set without
    /// per-node calls.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a set of the given capacity directly from bit words (the
    /// layout [`words`](Self::words) exposes). Missing words are zero.
    ///
    /// # Panics
    ///
    /// Panics if `words` is longer than the capacity needs or sets a bit
    /// at or above `capacity`.
    pub fn from_words(capacity: usize, words: &[u64]) -> Self {
        let n_words = capacity.div_ceil(64);
        assert!(words.len() <= n_words, "too many words for capacity");
        let mut w = words.to_vec();
        w.resize(n_words, 0);
        if !capacity.is_multiple_of(64) {
            if let Some(last) = w.last() {
                assert_eq!(
                    last & !((1u64 << (capacity % 64)) - 1),
                    0,
                    "bit set at or above capacity"
                );
            }
        }
        NodeSet { words: w, capacity }
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collects node ids; capacity is sized to the largest id.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let cap = ids.iter().map(|n| n.0 + 1).max().unwrap_or(0);
        let mut s = NodeSet::with_capacity(cap);
        for id in ids {
            s.insert(id);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|n| n.0)).finish()
    }
}

/// Iterator over the members of a [`NodeSet`] in increasing id order.
pub struct Iter<'a> {
    set: &'a NodeSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(NodeId(self.word * 64 + b));
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::with_capacity(130);
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(129)));
        assert!(!s.insert(NodeId(0)));
        assert!(s.contains(NodeId(129)));
        assert!(s.remove(NodeId(129)));
        assert!(!s.remove(NodeId(129)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = NodeSet::with_capacity(200);
        for &i in &[150usize, 3, 64, 63, 65] {
            s.insert(NodeId(i));
        }
        let got: Vec<NodeId> = s.iter().collect();
        assert_eq!(got, ids(&[3, 63, 64, 65, 150]));
    }

    #[test]
    fn set_algebra() {
        let mut a = NodeSet::with_capacity(10);
        let mut b = NodeSet::with_capacity(10);
        a.extend(ids(&[1, 2, 3]));
        b.extend(ids(&[3, 4]));
        assert!(a.intersects(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), ids(&[3]));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), ids(&[1, 2]));
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = NodeSet::with_capacity(5);
        assert!(s.is_empty());
        s.insert(NodeId(4));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        NodeSet::with_capacity(4).insert(NodeId(4));
    }

    #[test]
    fn words_round_trip() {
        let mut s = NodeSet::with_capacity(130);
        s.extend(ids(&[0, 63, 64, 129]));
        let rebuilt = NodeSet::from_words(130, s.words());
        assert_eq!(rebuilt, s);
        // Short word slices are zero-extended.
        let small = NodeSet::from_words(130, &[0b1001]);
        assert_eq!(small.iter().collect::<Vec<_>>(), ids(&[0, 3]));
    }

    #[test]
    #[should_panic(expected = "at or above capacity")]
    fn from_words_rejects_out_of_capacity_bits() {
        NodeSet::from_words(4, &[1 << 4]);
    }
}
