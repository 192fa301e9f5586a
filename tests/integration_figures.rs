//! Cross-crate integration tests over the reconstructed paper figures —
//! the per-figure experiments F1–F11 of DESIGN.md.

use mcc::figures;
use mcc::prelude::*;
use mcc_chordality::{is_chordal, is_chordal_bipartite_via_beta, project_onto};
use mcc_datamodel::try_enumerate_tree_interpretations;
use mcc_graph::{CancelToken, Workspace};
use mcc_hypergraph::{
    gyo_reduce, is_alpha_acyclic, is_berge_acyclic, is_beta_acyclic, is_conformal, is_gamma_acyclic,
};
use mcc_steiner::{algorithm2, minimum_cover_bruteforce, steiner_exact};

/// Greedy elimination along `order`: Algorithm 2 with that scan order,
/// returning the cover it keeps (`None` if the terminals are
/// disconnected).
fn eliminate_with_ordering(g: &Graph, order: &[NodeId], terminals: &NodeSet) -> Option<NodeSet> {
    let token = CancelToken::unbounded();
    let tree = algorithm2(&mut Workspace::new(), g, terminals, order, &token).ok()?;
    Some(tree.nodes)
}

#[test]
fn f1_employee_date_interpretations() {
    let schema = figures::fig1();
    let er = schema.to_graph().expect("fig1 is a valid ER schema");
    let g = &er.graph;
    let emp = er.node("EMPLOYEE").unwrap();
    let date = er.node("DATE").unwrap();
    let terminals = NodeSet::from_nodes(g.node_count(), [emp, date]);

    let alts = try_enumerate_tree_interpretations(g, &terminals, 5, 2).unwrap();
    assert!(alts.len() >= 2);
    // "list employees with their birthdate": no auxiliary objects.
    assert_eq!(alts[0].node_cost(), 2);
    // "the date from which they work in a department": via WORKS.
    let works = er.node("WORKS").unwrap();
    assert!(alts[1].nodes.contains(works));
    // The minimal interpretation is what the exact solver returns.
    let sol = steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone())).unwrap();
    assert_eq!(sol.cost, 2);
}

#[test]
fn f2_h1_alpha_h2_not() {
    let f = figures::fig2();
    // Three independent alpha tests agree on both sides.
    assert!(is_alpha_acyclic(&f.h1));
    assert!(gyo_reduce(&f.h1).acyclic);
    assert!(is_chordal(&mcc_hypergraph::primal_graph(&f.h1)) && is_conformal(&f.h1));
    assert!(!is_alpha_acyclic(&f.h2));
    assert!(!gyo_reduce(&f.h2).acyclic);
    assert!(!(is_chordal(&mcc_hypergraph::primal_graph(&f.h2)) && is_conformal(&f.h2)));
}

#[test]
fn f3_f4_theorem1_correspondence() {
    let f3 = figures::fig3();
    let f4 = figures::fig4();
    // (a): (4,1) ⟺ Berge-acyclic.
    assert!(mcc_chordality::is_forest(f3.a.graph()));
    assert!(is_berge_acyclic(&f4.berge));
    // (b): (6,2) ⟺ γ-acyclic.
    assert!(mcc_chordality::is_six_two_chordal(&f3.b));
    assert!(is_gamma_acyclic(&f4.gamma));
    assert!(!is_berge_acyclic(&f4.gamma));
    // (c): (6,1) ⟺ β-acyclic.
    assert!(mcc_chordality::is_chordal_bipartite(f3.c.graph()));
    assert!(is_chordal_bipartite_via_beta(&f3.c));
    assert!(is_beta_acyclic(&f4.beta));
    assert!(!is_gamma_acyclic(&f4.beta));
}

#[test]
fn f5_projections_are_chordal_both_ways() {
    let f = figures::fig5();
    // Both projections chordal (the V-chordality halves of Theorem 1 v/vi).
    let (p1, _) = project_onto(&f, Side::V1);
    let (p2, _) = project_onto(&f, Side::V2);
    assert!(is_chordal(&p1));
    assert!(is_chordal(&p2));
    // And yet a chordless 6-cycle exists in the graph itself.
    assert!(!mcc_chordality::is_chordal_bipartite(f.graph()));
}

#[test]
fn f6_x3c_equivalence_both_directions() {
    let g = figures::fig6();
    // Forward: the known cover {c1, c3} gives a threshold tree.
    let tree = g.tree_from_cover(&[0, 2]).unwrap();
    assert_eq!(tree.node_cost(), g.threshold());
    // Backward: the exact optimum meets the threshold and decodes to an
    // exact cover.
    let sol = steiner_exact(&SteinerInstance::new(
        g.graph.graph().clone(),
        g.terminals(),
    ))
    .unwrap();
    assert_eq!(sol.cost as usize, g.threshold());
    let cover = g.extract_cover(&sol.tree).unwrap();
    assert!(g.instance.is_exact_cover(&cover));
}

#[test]
fn f8_cover_taxonomy_is_strict() {
    let f = figures::fig8();
    let g = f.g.graph();
    // The four sets are pairwise distinct demonstrations.
    assert_ne!(f.nonredundant, f.minimum);
    assert_ne!(f.v1_nonredundant, f.v1_minimum);
    // Minimum covers are nonredundant but not conversely.
    let min = minimum_cover_bruteforce(g, &f.terminals).unwrap();
    assert!(mcc_steiner::is_nonredundant_cover(g, &min, &f.terminals));
    assert!(mcc_steiner::is_nonredundant_cover(
        g,
        &f.nonredundant,
        &f.terminals
    ));
    assert!(f.nonredundant.len() > min.len());
}

#[test]
fn f9_cspc_gadget_agrees_with_source() {
    let g = figures::fig9();
    let terms = NodeSet::from_nodes(g.source.node_count(), [NodeId(0), NodeId(4)]);
    let lifted = g.lift_terminals(&terms);
    let n = g.source.node_count();
    let weights: Vec<u64> = (0..g.graph.graph().node_count())
        .map(|i| u64::from(i >= n))
        .collect();
    let sol = mcc_steiner::steiner_exact_node_weighted(g.graph.graph(), &lifted, &weights).unwrap();
    assert_eq!(Some(sol.cost as usize), g.cspc_bruteforce(&terms));
}

#[test]
fn f10_nonredundant_path_dichotomy() {
    let f = figures::fig10();
    let g = f.g.graph();
    // On this (6,1)-but-not-(6,2) graph, Lemma 4's equivalence fails in
    // the expected direction: a nonredundant path that is not minimum.
    assert!(mcc_steiner::is_nonredundant_path(g, &f.long_path));
    assert!(!mcc_steiner::is_minimum_path(g, &f.long_path));
    // On a (6,2)-chordal graph the dichotomy cannot happen: check all
    // nonredundant paths of fig3(b) are minimum (Lemma 4 forward).
    let f3 = figures::fig3();
    let gb = f3.b.graph();
    // Enumerate simple paths by DFS and test each.
    let mut stack: Vec<Vec<NodeId>> = gb.nodes().map(|v| vec![v]).collect();
    while let Some(path) = stack.pop() {
        let last = *path.last().unwrap();
        for &next in gb.neighbors(last) {
            if path.contains(&next) {
                continue;
            }
            let mut p2 = path.clone();
            p2.push(next);
            if mcc_steiner::is_nonredundant_path(gb, &p2) {
                assert!(
                    mcc_steiner::is_minimum_path(gb, &p2),
                    "Lemma 4 violated by {p2:?}"
                );
            }
            stack.push(p2);
        }
    }
}

#[test]
fn f11_theorem6_case_analysis() {
    let f = figures::fig11();
    let g = f.g.graph();
    let central: Vec<NodeId> = f.cases.iter().map(|(v, _)| *v).collect();

    for (first, bad_terms) in &f.cases {
        // Build several orderings in which `first` precedes the other
        // central nodes: first at the very front; first after all
        // peripheral nodes; and a reversed-peripheral variant.
        let others: Vec<NodeId> = central.iter().copied().filter(|v| v != first).collect();
        let peripheral: Vec<NodeId> = g.nodes().filter(|v| !central.contains(v)).collect();
        let mut orderings: Vec<Vec<NodeId>> = Vec::new();
        let mut o1 = vec![*first];
        o1.extend(peripheral.iter().copied());
        o1.extend(others.iter().copied());
        orderings.push(o1);
        let mut o2: Vec<NodeId> = peripheral.clone();
        o2.push(*first);
        o2.extend(others.iter().copied());
        orderings.push(o2);
        let mut o3: Vec<NodeId> = peripheral.iter().rev().copied().collect();
        o3.push(*first);
        o3.extend(others.iter().rev().copied());
        orderings.push(o3);

        let min = minimum_cover_bruteforce(g, bad_terms)
            .expect("feasible")
            .len();
        for order in orderings {
            let got = eliminate_with_ordering(g, &order, bad_terms).expect("feasible");
            assert!(
                got.len() > min,
                "ordering starting at {:?} should fail terminals {:?} (got {} = min {})",
                g.label(*first),
                bad_terms,
                got.len(),
                min
            );
        }
    }
}

#[test]
fn f11_each_case_is_individually_solvable() {
    // Theorem 6 says no ordering is good for *all* terminal sets; each
    // single case is still solvable by an ordering that defers its
    // central node to the very end.
    let f = figures::fig11();
    let g = f.g.graph();
    for (first, terms) in &f.cases {
        let mut order: Vec<NodeId> = g.nodes().filter(|v| v != first).collect();
        order.push(*first);
        let got = eliminate_with_ordering(g, &order, terms).expect("feasible");
        let min = minimum_cover_bruteforce(g, terms).unwrap().len();
        assert_eq!(
            got.len(),
            min,
            "deferring {:?} should solve its case",
            g.label(*first)
        );
    }
}
