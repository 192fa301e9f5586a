//! Allocation pin for a warm `QueryEngine::connect`: answering a query
//! allocates a fixed number of times, however many nodes the answer
//! has. The terminal set and the tree's node set and edge list are
//! allocated per query; the names of the tree's nodes are borrowed from
//! the schema's graph, never copied, so nothing proportional to the
//! answer may be allocated.
//!
//! The counter is process-wide, so this test is the only one in its
//! binary: a second test running in parallel would add its own
//! allocations to the count.
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

use mcc_datamodel::{QueryEngine, RelationalSchema, Strategy};
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
/// relations: `2·relations + 1` nodes, a tree, so connecting its ends
/// takes Algorithm 2 and uses every node.
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

/// Allocations of one warm `connect` across the ends of a chain of
/// `relations` relations. Debug builds run Algorithm 2's tree
/// certificate on schemas of at most `CHECK_STEINER_MAX_NODES` nodes;
/// its allocations are measured on the returned tree and subtracted, so
/// the count is the same in both build profiles' terms.
fn warm_connect_allocations(relations: usize) -> u64 {
    let engine = QueryEngine::new(chain(relations)).unwrap();
    let last = format!("a{relations}");
    let names = ["a0", last.as_str()];
    // Warm-up: the workspace grows to the schema, the graph builds its
    // tree of blocks and the telemetry shard is set up.
    for _ in 0..2 {
        engine.connect(&names).unwrap();
    }

    let before = allocation_count();
    let it = engine.connect(&names).unwrap();
    let mut allocs = allocation_count() - before;
    assert_eq!(it.strategy, Strategy::Algorithm2);
    assert_eq!(it.node_cost(), 2 * relations + 1, "the whole chain");
    assert_eq!(it.relations().count(), relations);
    assert_eq!(it.attributes().last(), Some(last.as_str()));

    let g = engine.graph().graph();
    if cfg!(debug_assertions) && g.node_count() <= CHECK_STEINER_MAX_NODES {
        let terminals = engine.resolve(&names).unwrap();
        let before = allocation_count();
        assert!(check_steiner_solution(
            g,
            &it.tree.nodes,
            &terminals,
            &it.tree
        ));
        allocs -= allocation_count() - before;
    }
    allocs
}

#[test]
fn warm_connect_allocation_count_is_independent_of_answer_size() {
    // Answers of 5, 51, 129 and 601 nodes.
    let sizes = [2, 25, 64, 300];
    let counts: Vec<u64> = sizes
        .iter()
        .map(|&relations| warm_connect_allocations(relations))
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "warm connect allocations moved with the answer's size: {counts:?} over {sizes:?} relations"
    );
}
