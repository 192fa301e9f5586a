//! Node labels: one arena of bytes and a hashed index over it.
//!
//! A graph's labels live back to back in one `String`, delimited by `u32`
//! end offsets, so a graph holds three allocations for its labels
//! whatever its size instead of one heap `String` per node. Lookup by
//! name goes through an open-addressing table of `u32` node slots that
//! holds no copy of any label: a probe hashes the name, then compares it
//! with the arena slices of the nodes its probe sequence meets.

use crate::NodeId;

/// The labels of a graph's nodes, in id order, and their index.
#[derive(Debug, Default, Clone)]
pub(crate) struct Labels {
    /// Every label, back to back.
    arena: String,
    /// `ends[i]` is the byte where label `i` ends; it starts where label
    /// `i - 1` ends (label 0 at byte 0).
    ends: Vec<u32>,
    /// Linear-probing table, a power of two of at least `2n` entries
    /// (empty for `n = 0`): 0 marks an empty slot, `v + 1` node `v`. Each
    /// distinct label has one slot, its lowest node. Filled by
    /// [`Labels::build_index`]; a builder's labels have none.
    slots: Vec<u32>,
}

/// Label equality is the equality of the label sequences; the index is
/// derived from them.
impl PartialEq for Labels {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }
}

impl Eq for Labels {}

impl Labels {
    /// Number of labels.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends a label. An arena past `u32::MAX` bytes saturates its end
    /// offsets here and is refused by [`Labels::build_index`], so no
    /// saturated offset is ever read.
    pub(crate) fn push(&mut self, label: &str) {
        self.arena.push_str(label);
        self.ends
            .push(u32::try_from(self.arena.len()).unwrap_or(u32::MAX));
    }

    /// The label of node `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.arena[start..self.ends[i] as usize]
    }

    /// Builds the hashed index, once per graph: `O(n)` expected probes.
    /// Distinct labels crafted to collide lengthen every probe, up to
    /// `O(n²)` comparisons for the build and `O(n)` per lookup, the cost
    /// of the scan the index replaced.
    ///
    /// # Panics
    /// Panics when the arena exceeds `u32::MAX` bytes or the graph has
    /// `u32::MAX` nodes or more (a slot holds `v + 1` in a `u32`).
    pub(crate) fn build_index(&mut self) {
        assert!(
            u32::try_from(self.arena.len()).is_ok(),
            "graph labels too large for u32 arena offsets ({} bytes)",
            self.arena.len()
        );
        let n = self.len();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < u32::MAX),
            "graph too large for u32 label slots ({n} nodes)"
        );
        let size = if n == 0 {
            0
        } else {
            (2 * n).next_power_of_two()
        };
        let mut slots = vec![0u32; size];
        let mask = size.wrapping_sub(1);
        for v in 0..n {
            let label = self.get(v);
            let mut i = bucket(label, mask);
            loop {
                match slots[i] {
                    0 => {
                        slots[i] = NodeId::from_index(v).0 + 1;
                        break;
                    }
                    // An earlier node carries this label and keeps it.
                    s if self.get(s as usize - 1) == label => break,
                    _ => i = (i + 1) & mask,
                }
            }
        }
        self.slots = slots;
    }

    /// The lowest node labelled `label`: one hash, then one arena
    /// comparison per occupied slot the probe meets. The table is at most
    /// half full, so a probe ends at an empty slot.
    pub(crate) fn find(&self, label: &str) -> Option<NodeId> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = bucket(label, mask);
        loop {
            let v = self.slots[i].checked_sub(1)?;
            if self.get(v as usize) == label {
                return Some(NodeId(v));
            }
            i = (i + 1) & mask;
        }
    }
}

/// The home slot of `label` in a table of `mask + 1` entries (a power of
/// two): a fixed, unseeded multiply–rotate hash over the label's bytes
/// eight at a time, starting from its length, so every build of a graph
/// lays its table out the same way. A product's high bits depend on
/// every bit of its operand, so the slot is the hash's top bits.
fn bucket(label: &str, mask: usize) -> usize {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, bytes: &[u8]| {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        (h.rotate_left(23) ^ u64::from_le_bytes(word)).wrapping_mul(K)
    };
    let mut chunks = label.as_bytes().chunks_exact(8);
    let mut h = (label.len() as u64).wrapping_mul(K);
    for chunk in &mut chunks {
        h = mix(h, chunk);
    }
    if !chunks.remainder().is_empty() {
        h = mix(h, chunks.remainder());
    }
    h.rotate_left(mask.count_ones()) as usize & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bucket_is_fixed() {
        // No seed: the same label lands in the same slot in every process.
        let mask = u32::MAX as usize;
        assert_eq!(bucket("", 0), 0);
        assert_eq!(bucket("abc", mask), 3_212_919_296);
        // Labels that agree in their first eight bytes still part.
        assert_eq!(bucket("abcdefgh1", mask), 633_344_335);
        assert_eq!(bucket("abcdefgh2", mask), 3_287_780_105);
    }

    #[test]
    fn names_that_differ_in_their_last_bytes_spread_out() {
        // Served names such as `attr_17` differ only in a byte or two;
        // their home slots must still spread over the table, or every
        // probe walks one cluster.
        let names: Vec<String> = (0..300).map(|i| format!("attr_{i}")).collect();
        let mask = (2 * names.len()).next_power_of_two() - 1;
        let homes: std::collections::HashSet<usize> =
            names.iter().map(|n| bucket(n, mask)).collect();
        assert!(homes.len() > names.len() / 2, "{} home slots", homes.len());
    }
}
