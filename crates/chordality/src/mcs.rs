//! Maximum cardinality search on graphs (Tarjan–Yannakakis).

use mcc_graph::{Adjacency, NodeId, NodeSet};

/// Computes a maximum-cardinality-search ordering: repeatedly select an
/// unvisited node adjacent to the largest number of visited nodes (ties
/// toward smaller id). For chordal graphs the **reverse** of this order is
/// a perfect elimination ordering (Tarjan & Yannakakis, reference \[12\] of
/// the paper).
///
/// The unvisited nodes sit in one doubly linked list per weight, so a
/// weight increment moves a node between lists in `O(1)`, and a
/// selection scans the highest non-empty list for its smallest id. Every
/// table is sized from `n` up front, so the allocation count does not
/// depend on the graph. It runs on any [`Adjacency`]: a
/// [`mcc_graph::Graph`], or an unlabelled [`mcc_graph::CsrRef`].
pub fn mcs_order<G: Adjacency + ?Sized>(g: &G) -> Vec<NodeId> {
    let _span = mcc_obs::span!(McsOrder);
    let n = g.node_count();
    let mut order = Vec::with_capacity(n);
    let mut weight = vec![0usize; n];
    let mut lists = Lists::new(n);
    // Unvisited nodes as a bitset so the neighbor sweep can run
    // word-parallel against dense adjacency rows.
    let mut unvisited = NodeSet::full(n);
    let mut max_weight = 0usize;
    while order.len() < n {
        while lists.head[max_weight] == NIL {
            assert!(max_weight > 0, "weight-0 list holds all unvisited nodes");
            max_weight -= 1;
        }
        let v = lists.min(max_weight);
        lists.unlink(max_weight, v);
        let v = NodeId::from_index(v);
        unvisited.remove(v);
        order.push(v);
        for u in g.alive_neighbors(v, &unvisited) {
            let u = u.index();
            lists.unlink(weight[u], u);
            weight[u] += 1;
            lists.push(weight[u], u);
            max_weight = max_weight.max(weight[u]);
        }
    }
    order
}

/// No node: the end of a list.
const NIL: usize = usize::MAX;

/// The unvisited nodes by weight, one doubly linked list per weight
/// (a weight never exceeds `n - 1`). List order is irrelevant: a
/// selection takes the smallest id.
struct Lists {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
}

impl Lists {
    /// Every node of `0..n` in the weight-0 list.
    fn new(n: usize) -> Self {
        let mut lists = Lists {
            head: vec![NIL; n + 1],
            next: vec![NIL; n],
            prev: vec![NIL; n],
        };
        for v in 0..n {
            lists.push(0, v);
        }
        lists
    }

    /// The smallest node of the non-empty list `w`.
    fn min(&self, w: usize) -> usize {
        let mut best = self.head[w];
        let mut c = self.next[best];
        while c != NIL {
            best = best.min(c);
            c = self.next[c];
        }
        best
    }

    /// Puts `v` at the front of list `w`.
    fn push(&mut self, w: usize, v: usize) {
        self.next[v] = self.head[w];
        self.prev[v] = NIL;
        if self.head[w] != NIL {
            self.prev[self.head[w]] = v;
        }
        self.head[w] = v;
    }

    /// Takes `v` out of list `w`.
    fn unlink(&mut self, w: usize, v: usize) {
        let (p, nx) = (self.prev[v], self.next[v]);
        match p {
            NIL => self.head[w] = nx,
            p => self.next[p] = nx,
        }
        if nx != NIL {
            self.prev[nx] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;

    #[test]
    fn visits_all_nodes_once() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let order = mcs_order(&g);
        assert_eq!(order.len(), 6);
        let mut s = order.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn prefers_nodes_with_more_visited_neighbors() {
        // Triangle 0,1,2 plus pendant 3 on node 0. After visiting 0 and 1,
        // node 2 (two visited neighbors) must precede node 3 (one).
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        let order = mcs_order(&g);
        let pos = |v: u32| order.iter().position(|&x| x == NodeId(v)).unwrap();
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(0, &[]);
        assert!(mcs_order(&g).is_empty());
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let order = mcs_order(&g);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn reverse_is_peo_on_chordal() {
        // A 3-sun-free chordal example: K4 minus an edge plus a tail.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let mut order = mcs_order(&g);
        order.reverse();
        assert!(crate::peo::is_perfect_elimination_ordering(&g, &order));
    }
}
