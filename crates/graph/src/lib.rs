//! # `mcc-graph` — graph substrate for the `mcc` workspace
//!
//! This crate provides the finite, simple, undirected graphs on which the
//! whole reproduction of Ausiello–D'Atri–Moscarini ("Chordality Properties
//! on Graphs and Minimal Conceptual Connections in Semantic Data Models",
//! JCSS 33, 1986) is built:
//!
//! * [`Graph`] — an immutable, compact, adjacency-list graph with labelled
//!   nodes, built through [`GraphBuilder`];
//! * [`BipartiteGraph`] — a graph together with a certified two-sided
//!   partition `(V1, V2)` (Definition 1 of the paper);
//! * [`NodeSet`] — a bitset over the nodes of a fixed graph, used
//!   pervasively to represent *induced alive subgraphs*: the paper's
//!   algorithms repeatedly delete nodes and re-test connectivity, which we
//!   realize by masking rather than by rebuilding graphs;
//! * traversal, connectivity, shortest paths, spanning trees, induced
//!   subgraphs, and a (deliberately exponential, test-only) simple-cycle
//!   enumerator used to cross-check the definitional chordality predicates.
//!
//! The graphs here are *simple*: self-loops are rejected and parallel edges
//! are merged at build time. Node identity is positional ([`NodeId`] wraps a
//! dense `u32` index), which keeps every per-node table a flat `Vec`.

#![forbid(unsafe_code)]

pub mod biconnected;
pub mod bipartite;
pub mod budget;
pub mod builder;
pub mod connectivity;
pub mod cycles;
pub mod dot;
pub mod error;
pub mod graph;
pub mod ids;
pub mod nodeset;
pub mod paths;
pub mod spanning;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod words;
pub mod workspace;

pub use biconnected::{remove_if_redundant_in, terminal_blocks_in, BlockTree};
pub use bipartite::{BipartiteGraph, Side};
pub use budget::{BudgetExceeded, BudgetKind, CancelToken, SolveBudget, Stage};
pub use builder::GraphBuilder;
pub use connectivity::{
    component_of, component_of_in, connected_components, is_connected, is_connected_within,
    is_cover, terminals_connected, terminals_connected_in,
};
pub use cycles::{chords_of_cycle, enumerate_cycles, Cycle, CycleLimits};
pub use error::GraphError;
pub use graph::{
    check_adjacency_symmetric, Adjacency, AliveNeighbors, CsrRef, Graph, CHECK_ADJACENCY_MAX_NODES,
};
pub use ids::NodeId;
pub use nodeset::NodeSet;
pub use paths::{all_pairs_distances, bfs_distances, shortest_path, INFINITE_DISTANCE};
pub use spanning::spanning_tree;
pub use stats::{graph_stats, GraphStats};
pub use subgraph::{induced_subgraph, InducedSubgraph};
pub use traversal::{bfs_order, bfs_order_in, dfs_order};
pub use workspace::{Workspace, WorkspaceStats};
