//! Fixed-capacity bitsets over the nodes of a graph.

use crate::NodeId;
use std::fmt;

const WORD_BITS: usize = 64;

/// A set of nodes of a fixed graph, stored as a bitset.
///
/// The capacity is fixed at construction (to the node count of the graph the
/// set refers to). `NodeSet` is the universal currency of the workspace's
/// elimination algorithms: the paper's Algorithms 1 and 2 "delete" nodes
/// from the graph, which we realize by shrinking an *alive* mask and running
/// connectivity tests restricted to the mask.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl NodeSet {
    /// The empty set over a universe of `capacity` nodes.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
            len: 0,
        }
    }

    /// The full set `{0, …, capacity-1}`.
    pub fn full(capacity: usize) -> Self {
        let mut s = NodeSet::new(capacity);
        s.fill();
        s
    }

    /// Inserts every node of the universe, keeping the allocation.
    pub fn fill(&mut self) {
        self.words.fill(u64::MAX);
        // Clear the bits beyond `capacity` in the last word.
        let extra = self.words.len() * WORD_BITS - self.capacity;
        if let Some(last) = self.words.last_mut() {
            *last >>= extra;
        }
        self.len = self.capacity;
    }

    /// Builds a set from an iterator of nodes over the given universe size.
    pub fn from_nodes(capacity: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = NodeSet::new(capacity);
        for v in nodes {
            s.insert(v);
        }
        s
    }

    /// Universe size this set ranges over.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Removes every member, keeping the capacity (and allocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Re-fits this set to a universe of `capacity` nodes and clears it,
    /// reusing the word allocation where possible. This is how the
    /// workspace set pool recycles sets across graphs of different sizes
    /// without tripping the universe-equality assertions.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(WORD_BITS), 0);
        self.capacity = capacity;
        self.len = 0;
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no node is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(
            i < self.capacity,
            "node {v:?} beyond capacity {}",
            self.capacity
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Inserts `v`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v.index();
        assert!(
            i < self.capacity,
            "node {v:?} beyond capacity {}",
            self.capacity
        );
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *w & mask == 0 {
            *w |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *w & mask != 0 {
            *w &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter {
                word,
                base: wi * WORD_BITS,
            })
    }

    /// Collects the members into a vector (increasing order), allocated
    /// once at its final length.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet universes differ");
        let mut len = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet universes differ");
        let mut len = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet universes differ");
        let mut len = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// New set: union.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// New set: intersection.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// New set: difference.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// `true` iff every member of `self` is in `other`.
    pub fn is_subset_of(&self, other: &NodeSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "NodeSet universes differ");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the two sets share no member.
    pub fn is_disjoint_from(&self, other: &NodeSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "NodeSet universes differ");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// The raw `u64` words backing this set (bit `i % 64` of word
    /// `i / 64` is node `i`; bits at or beyond the capacity are zero).
    /// Word-parallel sweeps read these directly, such as the adjacency
    /// probes here and the conformality scan over hyperedge rows.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs a raw word row into this set **without maintaining `len`**.
    /// Callers must finish their word-level writes with
    /// [`NodeSet::recount`] before the set is used as a set again.
    #[inline]
    pub(crate) fn or_words(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.words.len(), "word row length mismatch");
        for (a, b) in self.words.iter_mut().zip(row) {
            *a |= b;
        }
    }

    /// Recomputes `len` from the stored words after raw word writes.
    pub(crate) fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// An arbitrary member (the smallest), if any.
    pub fn first(&self) -> Option<NodeId> {
        for (wi, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(NodeId::from_index(
                    wi * WORD_BITS + word.trailing_zeros() as usize,
                ));
            }
        }
        None
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(NodeId::from_index(self.base + tz))
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(100);
        assert!(s.insert(NodeId(5)));
        assert!(!s.insert(NodeId(5)));
        assert!(s.contains(NodeId(5)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn full_has_exact_capacity() {
        for cap in [0, 1, 63, 64, 65, 127, 128, 200] {
            let s = NodeSet::full(cap);
            assert_eq!(s.len(), cap, "cap={cap}");
            assert_eq!(s.iter().count(), cap);
            if cap > 0 {
                assert!(s.contains(NodeId::from_index(cap - 1)));
            }
        }
    }

    #[test]
    fn iter_in_order_across_words() {
        let s = NodeSet::from_nodes(130, ids(&[0, 63, 64, 129]));
        assert_eq!(s.to_vec(), ids(&[0, 63, 64, 129]));
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_nodes(10, ids(&[1, 2, 3]));
        let b = NodeSet::from_nodes(10, ids(&[3, 4]));
        assert_eq!(a.union(&b).to_vec(), ids(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b).to_vec(), ids(&[3]));
        assert_eq!(a.difference(&b).to_vec(), ids(&[1, 2]));
        assert!(NodeSet::from_nodes(10, ids(&[1, 3])).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(a.is_disjoint_from(&NodeSet::from_nodes(10, ids(&[7]))));
        assert!(!a.is_disjoint_from(&b));
    }

    #[test]
    fn len_tracked_through_algebra() {
        let mut a = NodeSet::from_nodes(10, ids(&[1, 2]));
        a.union_with(&NodeSet::from_nodes(10, ids(&[2, 9])));
        assert_eq!(a.len(), 3);
        a.intersect_with(&NodeSet::from_nodes(10, ids(&[9])));
        assert_eq!(a.len(), 1);
        a.difference_with(&NodeSet::from_nodes(10, ids(&[9])));
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn first_returns_smallest() {
        assert_eq!(NodeSet::new(5).first(), None);
        let s = NodeSet::from_nodes(200, ids(&[150, 7]));
        assert_eq!(s.first(), Some(NodeId(7)));
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mismatched_capacity_panics() {
        let a = NodeSet::new(10);
        let b = NodeSet::new(20);
        let _ = a.is_subset_of(&b);
    }
}
