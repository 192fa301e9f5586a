//! Shared workload construction for the `tables` binary (experiments
//! E1–E8 of EXPERIMENTS.md). Everything is seed-deterministic, so every
//! run measures identical instances.

#![forbid(unsafe_code)]

use mcc::gen::block_tree::BlockTreeShape;
use mcc::gen::join_tree::JoinTreeShape;
use mcc::gen::{
    random_alpha_acyclic, random_bipartite, random_six_two_block_tree, random_terminals,
    random_x3c_planted,
};
use mcc::graph::{BipartiteGraph, Graph, NodeSet};
use mcc::reductions::Theorem2Gadget;

/// A ready-to-solve instance: graph + terminals (+ the bipartite view
/// when the producing family has one).
pub struct Workload {
    /// Human-readable family/scale tag.
    pub tag: String,
    /// The bipartite view.
    pub bipartite: BipartiteGraph,
    /// The terminals.
    pub terminals: NodeSet,
}

impl Workload {
    /// The plain graph.
    pub fn graph(&self) -> &Graph {
        self.bipartite.graph()
    }

    /// `|V| · |A|` — the complexity budget of Theorems 4 and 5.
    pub fn va(&self) -> usize {
        self.graph().node_count() * self.graph().edge_count()
    }
}

/// A (6,2)-chordal block-tree instance with `blocks` blocks and `terms`
/// random terminals (experiment E5).
pub fn six_two_workload(blocks: usize, terms: usize, seed: u64) -> Workload {
    let bg = random_six_two_block_tree(
        BlockTreeShape {
            blocks,
            max_block: 4,
        },
        seed,
    );
    let terminals = random_terminals(bg.graph(), None, terms, seed ^ 0x5eed);
    Workload {
        tag: format!("six_two/b{blocks}"),
        bipartite: bg,
        terminals,
    }
}

/// An α-acyclic join-tree instance with `edges` relations and `terms`
/// random attribute terminals (experiment E4).
pub fn alpha_workload(edges: usize, terms: usize, seed: u64) -> Workload {
    let shape = JoinTreeShape {
        num_edges: edges,
        max_shared: 3,
        max_fresh: 3,
    };
    let (_, bg) = random_alpha_acyclic(shape, seed);
    let v1 = bg.v1_set();
    let terminals = random_terminals(bg.graph(), Some(&v1), terms.min(v1.len()), seed ^ 0xa1fa);
    Workload {
        tag: format!("alpha/e{edges}"),
        bipartite: bg,
        terminals,
    }
}

/// A Theorem 2 gadget for a planted X3C instance of size `q` (experiment
/// E3). Terminals are the full `V2` per the reduction.
pub fn x3c_workload(q: usize, seed: u64) -> (Workload, Theorem2Gadget) {
    let gadget = Theorem2Gadget::build(random_x3c_planted(q, q + 2, seed));
    let terminals = gadget.terminals();
    let w = Workload {
        tag: format!("x3c/q{q}"),
        bipartite: gadget.graph.clone(),
        terminals,
    };
    (w, gadget)
}

/// A random (generally off-class) bipartite instance (experiment E8).
pub fn offclass_workload(n_side: usize, terms: usize, seed: u64) -> Option<Workload> {
    let bg = random_bipartite(n_side, n_side, 0.25, seed);
    let terminals = random_terminals(bg.graph(), None, terms, seed ^ 0x0ff);
    let w = Workload {
        tag: format!("offclass/n{n_side}"),
        bipartite: bg,
        terminals,
    };
    // Only keep feasible instances.
    let inst = mcc::steiner::SteinerInstance::new(w.graph().clone(), w.terminals.clone());
    inst.is_feasible().then_some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc::chordality::{classify_bipartite, is_six_two_chordal};

    #[test]
    fn workloads_are_on_their_classes() {
        let w = six_two_workload(5, 3, 1);
        assert!(is_six_two_chordal(&w.bipartite));
        assert!(w.va() > 0);
        let w = alpha_workload(6, 3, 1);
        assert!(classify_bipartite(&w.bipartite).h1_alpha_acyclic());
        let (w, gadget) = x3c_workload(2, 1);
        assert_eq!(w.terminals.len(), 3 * gadget.instance.q + 1);
    }

    #[test]
    fn offclass_feasibility_filter_works() {
        let mut feasible = 0;
        for seed in 0..10 {
            if offclass_workload(8, 3, seed).is_some() {
                feasible += 1;
            }
        }
        assert!(feasible > 0, "some dense random instances must be feasible");
    }
}
