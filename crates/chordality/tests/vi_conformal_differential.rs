//! Vᵢ-conformity at schema scale: the production recognizer (the pruned
//! Gilmore scan on the witness-side hypergraph) against the definitional
//! clique-enumeration check, on both sides, for the generated workload
//! families — α-acyclic join-tree schemas and (6,2) block trees of 40+
//! relations — and for one-edge perturbations of each, which knock some
//! of them off conformity.

use mcc_chordality::{
    find_vi_conformality_violation, is_six_two_chordal, is_vi_conformal, is_vi_conformal_bruteforce,
};
use mcc_gen::block_tree::BlockTreeShape;
use mcc_gen::join_tree::JoinTreeShape;
use mcc_gen::{add_random_edge, random_alpha_acyclic, random_six_two_block_tree};
use mcc_graph::{BipartiteGraph, Side};

#[test]
fn production_matches_definition_on_generated_schemas() {
    let mut checked = 0;
    let mut nonconformal = 0;
    for seed in 0..40u64 {
        let shape = JoinTreeShape {
            num_edges: 40 + (seed as usize % 21),
            max_shared: 3,
            max_fresh: 3,
        };
        let (_, alpha) = random_alpha_acyclic(shape, seed);
        let shape = BlockTreeShape {
            blocks: 30,
            max_block: 3,
        };
        let blocks = random_six_two_block_tree(shape, seed);
        assert!(is_six_two_chordal(&blocks));
        let mut graphs: Vec<BipartiteGraph> = vec![alpha, blocks];
        for i in 0..2 {
            if let Some(p) = add_random_edge(&graphs[i], seed) {
                graphs.push(p);
            }
        }
        for (i, bg) in graphs.iter().enumerate() {
            if i < 2 {
                assert!(
                    bg.side_count(Side::V2) >= 40,
                    "seed {seed}: too few relations"
                );
            }
            for side in [Side::V1, Side::V2] {
                let fast = is_vi_conformal(bg, side);
                assert_eq!(
                    fast,
                    is_vi_conformal_bruteforce(bg, side),
                    "seed {seed}, graph {i}, side {side:?}"
                );
                assert_eq!(
                    fast,
                    find_vi_conformality_violation(bg, side).is_none(),
                    "seed {seed}, graph {i}, side {side:?}: witness disagrees with verdict"
                );
                // Corollary 2 and Theorem 1(v): the unperturbed families
                // are conformal where their class says so.
                if i == 1 || (i == 0 && side == Side::V2) {
                    assert!(fast, "seed {seed}, graph {i}, side {side:?}");
                }
                checked += 1;
                nonconformal += usize::from(!fast);
            }
        }
    }
    assert!(checked >= 300, "only {checked} checks ran");
    assert!(
        nonconformal >= 50,
        "only {nonconformal} non-conformal cases"
    );
}
