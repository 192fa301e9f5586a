//! Dense node identifiers.

use std::fmt;

/// Identifier of a node inside a fixed [`Graph`](crate::Graph).
///
/// `NodeId` is a dense index: the nodes of a graph with `n` nodes are exactly
/// `NodeId(0), …, NodeId(n-1)` in insertion order. The identifier is only
/// meaningful relative to the graph that produced it; mixing identifiers
/// between graphs is a logic error (cheap debug assertions catch
/// out-of-range usage).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "the `# Panics` contract is the documented API; graphs beyond u32 nodes are unsupported"
    )]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id, NodeId(42));
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7), NodeId(7));
    }

    #[test]
    fn debug_and_display() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{}", NodeId(3)), "3");
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn from_index_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
