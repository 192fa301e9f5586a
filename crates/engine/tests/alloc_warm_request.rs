//! Allocation pin for the engine's warm request path: one
//! `submit(..).wait()` against a schema whose artifacts and worker
//! solver are already built allocates a fixed number of times, whatever
//! the schema's size. The request's reply slot, its terminal set and its
//! result tree are allocated per request; nothing proportional to the
//! schema (a copy of an ordering, a side set, a graph) may be.
//!
//! The solve runs on a worker thread, so the counter is process-wide and
//! this test is the only one in its binary: a second test running in
//! parallel would add its own allocations to the count.
//!
//! (The library forbids `unsafe`, but the allocator shim below needs it;
//! integration tests compile as their own crates, so the `forbid` does
//! not reach here, and the workspace-level `deny` is lowered below.)

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` cannot be written without `unsafe impl`"
)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers may panic"
)]

use mcc_datamodel::RelationalSchema;
use mcc_engine::{Engine, EngineConfig, QueryKind, QueryRequest, Side};
use mcc_steiner::{check_steiner_solution, CHECK_STEINER_MAX_NODES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation and reallocation, delegating to the system
/// allocator. Deallocations are not counted.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// A chain schema `R0(a0, a1), R1(a1, a2), …` with `relations`
/// relations: `2·relations + 1` nodes, a tree, so Steiner requests take
/// Algorithm 2 and pseudo-`V2` requests Algorithm 1.
fn chain(relations: usize) -> RelationalSchema {
    let attrs: Vec<String> = (0..=relations).map(|i| format!("a{i}")).collect();
    let names: Vec<String> = (0..relations).map(|i| format!("R{i}")).collect();
    let members: Vec<[usize; 2]> = (0..relations).map(|i| [i, i + 1]).collect();
    let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let rels: Vec<(&str, &[usize])> = names
        .iter()
        .zip(&members)
        .map(|(n, m)| (n.as_str(), &m[..]))
        .collect();
    RelationalSchema::from_lists("chain", &attrs, &rels)
}

/// Allocations of one warm request of `kind` connecting `a0` and `a1` on
/// a chain of `relations` relations, served by a one-worker engine.
/// Debug builds run the route's tree certificate on schemas of at most
/// `CHECK_STEINER_MAX_NODES` nodes; its allocations are measured on the
/// returned tree and subtracted, so the count is the same in both build
/// profiles' terms: independent of the schema's size.
fn warm_request_allocations(relations: usize, kind: QueryKind) -> u64 {
    let schema = chain(relations);
    let bg = schema.to_bipartite().unwrap();
    let engine = Engine::new(EngineConfig::with_workers(1));
    let id = engine.register(schema).unwrap();
    let request = |objects: &[&str]| match kind {
        QueryKind::Steiner => QueryRequest::steiner(id, objects),
        QueryKind::Pseudo(side) => QueryRequest::pseudo(id, objects, side),
    };
    // Warm-up: the worker builds its solver (and, for pseudo requests,
    // the Lemma 1 route), its workspace grows to the schema and its
    // telemetry shard is set up.
    for _ in 0..2 {
        engine
            .submit(request(&["a0", "a1"]))
            .unwrap()
            .wait()
            .unwrap();
    }

    let req = request(&["a0", "a1"]);
    let before = allocation_count();
    let sol = engine.submit(req).unwrap().wait().unwrap();
    let mut allocs = allocation_count() - before;
    assert_eq!(sol.tree.node_cost(), 3, "a0 – R0 – a1");

    let g = bg.graph();
    if cfg!(debug_assertions) && g.node_count() <= CHECK_STEINER_MAX_NODES {
        let terminals = sol.tree.nodes.clone();
        let before = allocation_count();
        assert!(check_steiner_solution(
            g,
            &sol.tree.nodes,
            &terminals,
            &sol.tree
        ));
        allocs -= allocation_count() - before;
    }
    drop(sol);
    engine.shutdown();
    allocs
}

#[test]
fn warm_request_allocation_count_is_independent_of_schema_size() {
    // Schemas of 9 to 2,049 nodes.
    let sizes = [4, 16, 64, 256, 1024];
    for kind in [QueryKind::Steiner, QueryKind::Pseudo(Side::V2)] {
        let counts: Vec<u64> = sizes
            .iter()
            .map(|&relations| warm_request_allocations(relations, kind))
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{kind:?}: warm request allocations moved with schema size: {:?} over {sizes:?} relations",
            counts
        );
    }
}
