//! Maximum cardinality search on graphs (Tarjan–Yannakakis).

use mcc_graph::{Adjacency, Graph, NodeId, Workspace};

/// Computes a maximum-cardinality-search ordering: repeatedly select an
/// unvisited node adjacent to the largest number of visited nodes (ties
/// toward smaller id). For chordal graphs the **reverse** of this order is
/// a perfect elimination ordering (Tarjan & Yannakakis, reference \[12\] of
/// the paper).
///
/// Thin wrapper over [`mcs_order_in`] with a transient workspace.
pub fn mcs_order(g: &Graph) -> Vec<NodeId> {
    let mut order = Vec::new();
    mcs_order_in(&mut Workspace::new(), g, &mut order);
    order
}

/// [`mcs_order`] through a workspace: visited marks use the epoch array
/// and the weight table and buckets come from the workspace pools, so
/// repeated recognizer calls stop re-allocating. The ordering is written
/// into `out` (cleared first).
///
/// This implementation keeps per-node weights and scans buckets, giving
/// `O(n + m)` up to the bucket bookkeeping. It runs on any
/// [`Adjacency`]: a [`Graph`], or an unlabelled [`mcc_graph::CsrRef`].
pub fn mcs_order_in<G: Adjacency + ?Sized>(ws: &mut Workspace, g: &G, out: &mut Vec<NodeId>) {
    let _span = mcc_obs::span!(McsOrder);
    let n = g.node_count();
    out.clear();
    out.reserve(n);
    let mut weight = ws.take_usize_buf();
    weight.resize(n, 0);
    // buckets[w] = nodes with current weight w (lazily cleaned).
    let mut buckets = ws.take_bucket_list();
    if buckets.is_empty() {
        // lint:allow(hot-path-alloc): warm-up growth of the pooled bucket spine; steady state is allocation-free (pinned by alloc_regression.rs).
        buckets.push(Vec::new());
    }
    buckets[0].extend((0..n).map(NodeId::from_index));
    // Unvisited nodes as a bitset so the neighbor sweep can run
    // word-parallel against dense adjacency rows.
    let mut unvisited = ws.take_set_buf(n);
    unvisited.fill();
    let mut max_weight = 0usize;
    while out.len() < n {
        // Find the highest non-empty bucket with an unvisited node; ties
        // break toward the smallest id for determinism.
        let v = loop {
            // One pass purges stale entries (visited, or promoted to a
            // higher bucket) and finds the minimum survivor, which is
            // then removed; bucket order is irrelevant to the choice.
            let bucket = &mut buckets[max_weight];
            let mut kept = 0;
            let mut best: Option<usize> = None;
            for r in 0..bucket.len() {
                let c = bucket[r];
                if unvisited.contains(c) && weight[c.index()] == max_weight {
                    bucket[kept] = c;
                    if best.map_or(true, |b| c < bucket[b]) {
                        best = Some(kept);
                    }
                    kept += 1;
                }
            }
            bucket.truncate(kept);
            match best {
                Some(b) => break bucket.swap_remove(b),
                None => {
                    assert!(max_weight > 0, "weight-0 bucket holds all unvisited nodes");
                    max_weight -= 1;
                }
            }
        };
        unvisited.remove(v);
        out.push(v);
        for u in g.alive_neighbors(v, &unvisited) {
            weight[u.index()] += 1;
            let w = weight[u.index()];
            if w >= buckets.len() {
                // lint:allow(hot-path-alloc): bucket-spine growth to the max weight seen, amortized away across reuse (pinned by alloc_regression.rs).
                buckets.resize(w + 1, Vec::new());
            }
            buckets[w].push(u);
            if w > max_weight {
                max_weight = w;
            }
        }
    }
    ws.return_set_buf(unvisited);
    ws.return_usize_buf(weight);
    ws.return_bucket_list(buckets);
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
