//! Set algebra on word rows: a set of nodes as `⌈n/64⌉` `u64` words,
//! bit `v % 64` of word `v / 64` standing for node `v` — the layout of
//! dense adjacency rows ([`crate::Graph::neighbors_bits`]) and of
//! [`crate::NodeSet`]'s storage. Rows keep no length, so chained ANDs
//! pay nothing per intermediate; the recognizers' triple scans (the
//! (6,2) six-cycle scan, Gilmore's conformity scan) run on them.

use crate::NodeId;

/// `out = a & b`, word by word.
pub fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
    }
}

/// `a ⊆ b`.
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// The smallest node of `a ∖ b`, without materializing the difference.
pub fn first_andnot(a: &[u64], b: &[u64]) -> Option<NodeId> {
    let (wi, word) = a
        .iter()
        .zip(b)
        .map(|(x, y)| x & !y)
        .enumerate()
        .find(|&(_, w)| w != 0)?;
    Some(NodeId::from_index(wi * 64 + word.trailing_zeros() as usize))
}

/// The nodes of a row, ascending.
pub fn bits(row: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    row.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                NodeId::from_index(wi * 64 + tz)
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_algebra_across_words() {
        let a = [0b1011, 1 << 3];
        let b = [0b0011, 0];
        let mut out = [0; 2];
        and_into(&mut out, &a, &b);
        assert_eq!(out, b);
        assert!(is_subset(&b, &a) && !is_subset(&a, &b));
        assert_eq!(first_andnot(&a, &b), Some(NodeId(3)));
        assert_eq!(first_andnot(&b, &a), None);
        let all: Vec<NodeId> = bits(&a).collect();
        assert_eq!(all, [NodeId(0), NodeId(1), NodeId(3), NodeId(67)]);
    }
}
