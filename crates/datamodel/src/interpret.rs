//! Alternative interpretations: enumerating the minimal connections of a
//! query, ranked by cost.
//!
//! The introduction's EMPLOYEE/DATE example: two connections exist — the
//! direct one through the shared attribute (birthdate) and the one
//! through the WORKS relationship (hire date). The minimal connection is
//! proposed first; an interactive interface then "progressively discloses
//! as few concepts as possible" by offering the next-cheapest
//! alternatives. This module enumerates nonredundant covers by
//! increasing node count, exhaustively — intended for the concept-graph
//! scale (tens of nodes), not for bulk workloads.

use mcc_graph::{BudgetExceeded, BudgetKind, Graph, NodeId, NodeSet, Stage};
use mcc_steiner::is_nonredundant_cover;

/// Hard size cap of [`try_enumerate_connections`] (the sweep is `O(2^n)`).
pub const MAX_CONNECTION_ENUM_NODES: usize = 24;

/// Hard size cap of [`try_enumerate_tree_interpretations`] (spanning-tree
/// enumeration on top of the `O(2^n)` cover sweep).
pub const MAX_TREE_ENUM_NODES: usize = 20;

/// Enumerates nonredundant covers of `terminals`, cheapest first, up to
/// `max_results` results and at most `max_slack` nodes above the minimum.
/// Deterministic order: by size, then lexicographic node sets.
///
/// The sweep is exponential by design: graphs over
/// [`MAX_CONNECTION_ENUM_NODES`] nodes are refused with a
/// [`BudgetExceeded`] (stage [`Stage::Enumeration`], kind
/// [`BudgetKind::Nodes`]).
pub fn try_enumerate_connections(
    g: &Graph,
    terminals: &NodeSet,
    max_results: usize,
    max_slack: usize,
) -> Result<Vec<NodeSet>, BudgetExceeded> {
    let n = g.node_count();
    if n > MAX_CONNECTION_ENUM_NODES {
        return Err(BudgetExceeded {
            stage: Stage::Enumeration,
            kind: BudgetKind::Nodes,
            limit: MAX_CONNECTION_ENUM_NODES as u64,
            observed: n as u64,
        });
    }
    if terminals.is_empty() || max_results == 0 {
        return Ok(Vec::new());
    }
    let free: Vec<NodeId> = g.nodes().filter(|v| !terminals.contains(*v)).collect();
    let k = free.len();
    // Collect nonredundant covers grouped by size.
    let mut covers: Vec<NodeSet> = Vec::new();
    for mask in 0u64..(1u64 << k) {
        let mut cover = terminals.clone();
        for (i, &v) in free.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cover.insert(v);
            }
        }
        if is_nonredundant_cover(g, &cover, terminals) {
            covers.push(cover);
        }
    }
    covers.sort_by_key(|c| (c.len(), c.to_vec()));
    let Some(min) = covers.first().map(|c| c.len()) else {
        return Ok(Vec::new());
    };
    covers.retain(|c| c.len() <= min + max_slack);
    covers.truncate(max_results);
    Ok(covers)
}

/// Enumerates **tree** interpretations of a query: subtrees of `g` whose
/// every leaf is a terminal, cheapest (fewest nodes) first, deduplicated
/// by edge set.
///
/// Distinct trees over the *same* node set are distinct interpretations —
/// this is what separates the two readings of the introduction's
/// EMPLOYEE/DATE query ("birthdate" uses the direct arc; "hire date"
/// routes through WORKS, whose tree strictly contains the direct pair as
/// a node set but uses different arcs).
///
/// Bounded exhaustive search: node sets up to `max_slack` above the
/// minimum cover size, then spanning-tree enumeration of each induced
/// subgraph.
///
/// Graphs over [`MAX_TREE_ENUM_NODES`] nodes are refused with a
/// [`BudgetExceeded`] (stage [`Stage::Enumeration`], kind
/// [`BudgetKind::Nodes`]).
pub fn try_enumerate_tree_interpretations(
    g: &Graph,
    terminals: &NodeSet,
    max_results: usize,
    max_slack: usize,
) -> Result<Vec<mcc_steiner::SteinerTree>, BudgetExceeded> {
    let n = g.node_count();
    if n > MAX_TREE_ENUM_NODES {
        return Err(BudgetExceeded {
            stage: Stage::Enumeration,
            kind: BudgetKind::Nodes,
            limit: MAX_TREE_ENUM_NODES as u64,
            observed: n as u64,
        });
    }
    if terminals.is_empty() || max_results == 0 {
        return Ok(Vec::new());
    }
    let Some(min_cover) = mcc_steiner::minimum_cover_bruteforce(g, terminals) else {
        return Ok(Vec::new());
    };
    let budget = min_cover.len() + max_slack;
    let free: Vec<NodeId> = g.nodes().filter(|v| !terminals.contains(*v)).collect();
    let k = free.len();
    let mut trees: Vec<mcc_steiner::SteinerTree> = Vec::new();
    for mask in 0u64..(1u64 << k) {
        if (mask.count_ones() as usize) + terminals.len() > budget {
            continue;
        }
        let mut nodes = terminals.clone();
        for (i, &v) in free.iter().enumerate() {
            if mask & (1 << i) != 0 {
                nodes.insert(v);
            }
        }
        if !mcc_graph::is_connected_within(g, &nodes) {
            continue;
        }
        // Induced edges among the chosen nodes.
        let members: Vec<NodeId> = nodes.to_vec();
        let mut edges = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if g.has_edge(a, b) {
                    edges.push((a, b));
                }
            }
        }
        enumerate_spanning_trees(&members, &edges, &mut |tree_edges| {
            // Leaf condition: every degree-1 node is a terminal.
            let mut degree = vec![0usize; n];
            for &(a, b) in tree_edges {
                degree[a.index()] += 1;
                degree[b.index()] += 1;
            }
            let ok = members.iter().all(|&v| degree[v.index()] != 1 || terminals.contains(v))
                // Isolated members only allowed in the 1-node tree.
                && (members.len() == 1
                    || members.iter().all(|&v| degree[v.index()] >= 1));
            if ok {
                trees.push(mcc_steiner::SteinerTree {
                    nodes: NodeSet::from_nodes(n, members.iter().copied()),
                    edges: tree_edges.to_vec(),
                });
            }
        });
    }
    trees.sort_by(|a, b| (a.node_cost(), &a.edges).cmp(&(b.node_cost(), &b.edges)));
    trees.dedup_by(|a, b| a.edges == b.edges && a.nodes == b.nodes);
    trees.truncate(max_results);
    Ok(trees)
}

/// Enumerates all spanning trees of the graph `(members, edges)` by
/// choosing `|members| - 1` edges and testing acyclicity/connectivity via
/// union-find. Exhaustive over edge combinations; intended for the tiny
/// induced subgraphs of interpretation enumeration.
fn enumerate_spanning_trees(
    members: &[NodeId],
    edges: &[(NodeId, NodeId)],
    emit: &mut impl FnMut(&[(NodeId, NodeId)]),
) {
    let need = members.len().saturating_sub(1);
    if need == 0 {
        emit(&[]);
        return;
    }
    if edges.len() < need {
        return;
    }
    let mut chosen: Vec<(NodeId, NodeId)> = Vec::with_capacity(need);
    combos(edges, need, 0, &mut chosen, members, emit);
}

fn combos(
    edges: &[(NodeId, NodeId)],
    need: usize,
    start: usize,
    chosen: &mut Vec<(NodeId, NodeId)>,
    members: &[NodeId],
    emit: &mut impl FnMut(&[(NodeId, NodeId)]),
) {
    if chosen.len() == need {
        if is_tree_over(chosen, members) {
            emit(chosen);
        }
        return;
    }
    let remaining = need - chosen.len();
    for i in start..=edges.len().saturating_sub(remaining) {
        chosen.push(edges[i]);
        combos(edges, need, i + 1, chosen, members, emit);
        chosen.pop();
    }
}

fn is_tree_over(edges: &[(NodeId, NodeId)], members: &[NodeId]) -> bool {
    // Union-find over member positions.
    let pos: std::collections::HashMap<NodeId, usize> = members
        .iter()
        .copied()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();
    let mut parent: Vec<usize> = (0..members.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    let mut merged = 0;
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, pos[&a]), find(&mut parent, pos[&b]));
        if ra == rb {
            return false; // cycle
        }
        parent[ra] = rb;
        merged += 1;
    }
    merged + 1 == members.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::fig1_schema;
    use mcc_graph::builder::graph_from_edges;

    #[test]
    fn fig1_employee_date_has_two_interpretations() {
        let er = fig1_schema().to_graph().unwrap();
        let g = &er.graph;
        let emp = er.node("EMPLOYEE").unwrap();
        let date = er.node("DATE").unwrap();
        let terminals = NodeSet::from_nodes(g.node_count(), [emp, date]);
        let alts = try_enumerate_tree_interpretations(g, &terminals, 10, 2).unwrap();
        assert!(
            alts.len() >= 2,
            "expected at least the two interpretations of the intro"
        );
        // First (minimal): the direct EMPLOYEE-DATE arc — no auxiliary
        // objects ("list employees with their birthdate").
        assert_eq!(alts[0].node_cost(), 2);
        assert_eq!(alts[0].edges, vec![ordered(emp, date)]);
        // Second: through WORKS ("the date from which they work in a
        // department") — same terminals, different arcs.
        let works = er.node("WORKS").unwrap();
        assert_eq!(alts[1].node_cost(), 3);
        assert!(alts[1].nodes.contains(works));
        assert!(!alts[1].edges.contains(&ordered(emp, date)));
    }

    fn ordered(
        a: mcc_graph::NodeId,
        b: mcc_graph::NodeId,
    ) -> (mcc_graph::NodeId, mcc_graph::NodeId) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    #[test]
    fn square_has_two_minimal_routes() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]);
        let alts = try_enumerate_connections(&g, &terminals, 10, 0).unwrap();
        assert_eq!(alts.len(), 2);
        assert!(alts.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn result_budget_respected() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]);
        assert_eq!(
            try_enumerate_connections(&g, &terminals, 1, 5)
                .unwrap()
                .len(),
            1
        );
        assert!(try_enumerate_connections(&g, &terminals, 0, 5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn disconnected_terminals_yield_nothing() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]);
        assert!(try_enumerate_connections(&g, &terminals, 10, 5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn oversized_graphs_are_rejected_as_values() {
        let edges: Vec<(usize, usize)> = (0..29).map(|i| (i, i + 1)).collect();
        let g = graph_from_edges(30, &edges);
        let terminals = NodeSet::from_nodes(30, [NodeId(0), NodeId(29)]);
        let e = try_enumerate_connections(&g, &terminals, 10, 0).unwrap_err();
        assert_eq!(e.stage, Stage::Enumeration);
        assert_eq!(e.kind, BudgetKind::Nodes);
        assert_eq!((e.limit, e.observed), (24, 30));
        let e = try_enumerate_tree_interpretations(&g, &terminals, 10, 0).unwrap_err();
        assert_eq!((e.limit, e.observed), (20, 30));
    }

    #[test]
    fn slack_zero_keeps_only_minima() {
        // Path of length 2 vs detour of length 3.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]);
        let terminals = NodeSet::from_nodes(5, [NodeId(0), NodeId(2)]);
        let tight = try_enumerate_connections(&g, &terminals, 10, 0).unwrap();
        assert_eq!(tight.len(), 1);
        assert_eq!(tight[0].len(), 3);
        let loose = try_enumerate_connections(&g, &terminals, 10, 1).unwrap();
        assert_eq!(loose.len(), 2);
    }
}
