//! A walkthrough of the paper's Section 4: good orderings, Corollary 5,
//! and the Theorem 6 counterexample (Fig. 11).
//!
//! ```sh
//! cargo run --example good_orderings
//! ```

use mcc::figures;
use mcc::graph::{CancelToken, NodeId, Workspace};
use mcc::steiner::{algorithm2, minimum_cover_bruteforce, ordering_landscape};
use mcc_graph::builder::graph_from_edges;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1 — Corollary 5: on a (6,2)-chordal graph EVERY ordering is
    // good. Exhaustively, over all 120 orderings of a 5-node example.
    let six_two = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
    let (good, bad) = ordering_landscape(&six_two);
    println!("(6,2)-chordal C4+pendant: {good} good orderings, {bad} bad (Corollary 5)");

    // Part 2 — one chord less: on a (6,1)-chordal graph orderings start
    // to matter, but good ones still exist.
    let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    e.push((1, 4));
    let six_one = graph_from_edges(6, &e);
    let (good, bad) = ordering_landscape(&six_one);
    println!("(6,1)-chordal C6+chord:   {good} good orderings, {bad} bad");
    println!();

    // Part 3 — Theorem 6: the Fig. 11 graph has NO good ordering. The
    // proof's case analysis: whichever of A, B, 1, 2 an ordering touches
    // first, one terminal set defeats it.
    let f = figures::fig11();
    let g = f.g.graph();
    println!("Fig. 11 (12 nodes, (6,1)-chordal): the four Theorem 6 cases");
    println!(
        "{:<8} {:<22} {:>7} {:>8}",
        "first", "terminal set", "greedy", "minimum"
    );
    for (first, terms) in &f.cases {
        let mut order: Vec<NodeId> = vec![*first];
        order.extend(g.nodes().filter(|v| v != first));
        // The greedy elimination along `order` is Algorithm 2 itself.
        let token = CancelToken::unbounded();
        let got = algorithm2(&mut Workspace::new(), g, terms, &order, &token)?.node_cost();
        let min = minimum_cover_bruteforce(g, terms)
            .ok_or("infeasible case")?
            .len();
        let labels: Vec<&str> = terms.iter().map(|v| g.label(v)).collect();
        println!(
            "{:<8} {:<22} {:>7} {:>8}",
            g.label(*first),
            format!("{{{}}}", labels.join(", ")),
            got,
            min
        );
    }
    println!();
    println!("Every ordering puts one of A, B, 1, 2 first among the four,");
    println!("so every ordering fails at least one terminal set: no good");
    println!("ordering exists — yet each case alone is solvable by an");
    println!("ordering that defers its central node (run the tests to see).");
    Ok(())
}
