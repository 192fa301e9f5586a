//! Solver comparison on generated workloads: the paper's tractability
//! frontier, observed.
//!
//! On (6,2)-chordal inputs Algorithm 2 matches the exact optimum at a
//! fraction of the cost; off-class the one-pass elimination degrades into
//! a heuristic (cf. Theorem 6), and the exact solver's runtime explodes
//! with the terminal count (cf. Theorem 2).
//!
//! ```sh
//! cargo run --release --example solver_comparison
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "timing the solvers is this example's job"
)]

use mcc::prelude::*;
use mcc_gen::{random_bipartite, random_six_two_block_tree, random_terminals};
use mcc_graph::{CancelToken, NodeId, Workspace};
use mcc_steiner::{algorithm2, steiner_exact, steiner_exact_ids, steiner_kmb};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Algorithm 2 and KMB take a deadline token; these runs have none.
    let token = CancelToken::unbounded();
    let mut ws = Workspace::new();
    println!("--- on-class: (6,2)-chordal block trees ---");
    println!(
        "{:>4} {:>6} {:>6} {:>7} {:>7} {:>7} {:>10} {:>10}",
        "seed", "nodes", "terms", "alg2", "exact", "kmb", "alg2 us", "exact us"
    );
    for seed in 0..8u64 {
        let shape = mcc_gen::block_tree::BlockTreeShape {
            blocks: 8,
            max_block: 4,
        };
        let bg = random_six_two_block_tree(shape, seed);
        let g = bg.graph().clone();
        let terminals = random_terminals(&g, None, 5, seed + 1000);

        let order: Vec<NodeId> = g.nodes().collect();
        let t0 = Instant::now();
        let a2 = algorithm2(&mut ws, &g, &terminals, &order, &token)?;
        let alg2_us = t0.elapsed().as_micros();

        let t0 = Instant::now();
        let exact = steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone()))
            .ok_or("block trees are connected")?;
        let exact_us = t0.elapsed().as_micros();

        let kmb = steiner_kmb(&mut ws, &g, &terminals, &token)?;
        assert_eq!(a2.node_cost() as u64, exact.cost, "Theorem 5 must hold");
        // Second exact baseline agrees too (different algorithm).
        let ids = steiner_exact_ids(&g, &terminals).ok_or("block trees are connected")?;
        assert_eq!(ids.cost, exact.cost, "exact solvers must agree");
        println!(
            "{:>4} {:>6} {:>6} {:>7} {:>7} {:>7} {:>10} {:>10}",
            seed,
            g.node_count(),
            terminals.len(),
            a2.node_cost(),
            exact.cost,
            kmb.node_cost(),
            alg2_us,
            exact_us
        );
    }

    println!();
    println!("--- off-class: random bipartite graphs (one-pass elimination as a heuristic) ---");
    println!(
        "{:>4} {:>6} {:>6} {:>7} {:>7} {:>7}  greedy/exact",
        "seed", "nodes", "terms", "greedy", "exact", "kmb"
    );
    let mut worst = 1.0f64;
    for seed in 0..10u64 {
        let bg = random_bipartite(9, 9, 0.25, seed);
        let g = bg.graph().clone();
        let terminals = random_terminals(&g, None, 4, seed + 2000);
        let order: Vec<NodeId> = g.nodes().collect();
        let (Ok(greedy), Some(exact), Ok(kmb)) = (
            algorithm2(&mut ws, &g, &terminals, &order, &token),
            steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone())),
            steiner_kmb(&mut ws, &g, &terminals, &token),
        ) else {
            println!(
                "{seed:>4} {:>6} {:>6}  (terminals disconnected)",
                g.node_count(),
                terminals.len()
            );
            continue;
        };
        let ratio = greedy.node_cost() as f64 / exact.cost as f64;
        worst = worst.max(ratio);
        println!(
            "{:>4} {:>6} {:>6} {:>7} {:>7} {:>7}  {:.3}",
            seed,
            g.node_count(),
            terminals.len(),
            greedy.node_cost(),
            exact.cost,
            kmb.node_cost(),
            ratio
        );
    }
    println!("worst greedy/exact ratio observed: {worst:.3}");
    println!("(Theorem 5's guarantee is confined to the (6,2)-chordal class.)");

    println!();
    println!("--- solver workspace traffic (SolveStats) ---");
    println!(
        "{:>4} {:>6} {:>10} {:>10} {:>10} {:>12}",
        "seed", "terms", "strategy", "bfs", "elim", "scratch B"
    );
    for seed in 0..4u64 {
        let shape = mcc_gen::block_tree::BlockTreeShape {
            blocks: 8,
            max_block: 4,
        };
        let bg = random_six_two_block_tree(shape, seed);
        let terminals = random_terminals(bg.graph(), None, 5, seed + 1000);
        let solver = Solver::new(bg);
        let sol = solver.solve_steiner(&terminals)?;
        println!(
            "{:>4} {:>6} {:>10} {:>10} {:>10} {:>12}",
            seed,
            terminals.len(),
            format!("{:?}", sol.strategy),
            sol.stats.bfs_runs,
            sol.stats.elimination_steps,
            sol.stats.scratch_bytes
        );
        // Repeat query through the same solver: the scratch footprint has
        // stabilized (no new buffers), the traffic repeats.
        let again = solver.solve_steiner(&terminals)?;
        assert_eq!(again.stats.scratch_bytes, sol.stats.scratch_bytes);
    }
    println!("(scratch bytes stay flat across repeat queries: the workspace reuses its buffers)");
    Ok(())
}
