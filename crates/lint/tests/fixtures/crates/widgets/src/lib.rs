//! Fixture crate for the generic rules: one seeded violation per rule
//! plus the matching exemptions. Never compiled — only lexed by the
//! fixture tests, which assert exact file:line:rule locations.
#![forbid(unsafe_code)]

/// Violation (no-panic): a naked unwrap in non-test library code.
pub fn naked_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Exempt: a justified unwrap.
pub fn justified_unwrap(x: Option<u32>) -> u32 {
    // PROVABLY: every caller in this fixture passes Some.
    x.unwrap()
}

/// Exempt: the escape hatch.
pub fn allowed_panic() {
    // lint:allow(no-panic): fixture exercises the escape hatch.
    panic!("allowed");
}

/// Violation (hot-path-alloc): an allocation inside a `*_in` hot path.
pub fn fill_in(out: &mut Vec<u32>) {
    let extra: Vec<u32> = Vec::new();
    out.extend(extra);
}

/// Exempt: the same allocation outside a hot path.
pub fn fill(out: &mut Vec<u32>) {
    let extra: Vec<u32> = Vec::new();
    out.extend(extra);
}

/// Violation (hot-path-adjacency): the slow adjacency form in a hot path.
pub fn probe_in(g: &Graph, a: u32, b: u32) -> bool {
    g.has_edge(a, b)
}

/// Exempt: the escape hatch.
pub fn probe_allowed_in(g: &Graph, a: u32, set: &NodeSet) -> bool {
    // lint:allow(hot-path-adjacency): fixture exercises the escape hatch.
    g.adjacent_to_set(a, set)
}

/// Exempt: the same call outside a hot path.
pub fn probe(g: &Graph, a: u32, b: u32) -> bool {
    g.has_edge(a, b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_fine() {
        Some(1u32).unwrap();
        let _: Vec<u32> = [1u32].iter().copied().collect();
    }
}
