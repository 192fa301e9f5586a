//! The fixed metric taxonomy: span kinds (stages) and chordality
//! classes. Enum-indexed so the registry is plain arrays — no
//! hashing, no interning, no allocation on the record path — and so the
//! Prometheus exposition order is total and stable by construction.

/// A traced stage of the solver stack. One duration histogram per
/// variant lives in the [`crate::Registry`]; the per-solve
/// [`crate::SolveTrace`] indexes by the same variants.
///
/// The taxonomy mirrors the paper's complexity map plus the serving
/// layer: schema-level work (classification, orderings, artifact
/// builds), the per-query elimination loops of Algorithms 1 and 2, the
/// off-class fallbacks (exact DP, KMB), and the engine's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// Theorem 1 recognizers (`classify_bipartite`).
    Classify = 0,
    /// Maximum-cardinality-search ordering (`mcs_order`).
    McsOrder = 1,
    /// The Lemma 1 ordering build (H¹ join tree + reversal).
    Lemma1Order = 2,
    /// Algorithm 1's Step 2 elimination loop (Theorems 3–4).
    Algorithm1 = 3,
    /// Algorithm 2's elimination loop (Theorem 5).
    Algorithm2 = 4,
    /// The Dreyfus–Wagner exact dynamic program.
    ExactDp = 5,
    /// The KMB-style 2-approximation heuristic.
    Kmb = 6,
    /// A `SchemaArtifacts` bundle build (registration or rebuild).
    ArtifactBuild = 7,
    /// Time a request spent admitted but not yet picked up by a worker.
    QueueWait = 8,
    /// One engine worker serving one request end to end.
    Serve = 9,
    /// One `Solver` solve end to end (ladder fallbacks included).
    SolveTotal = 10,
}

/// Number of [`SpanKind`] variants (array dimension).
pub const N_SPANS: usize = 11;

impl SpanKind {
    /// Every variant, in index order.
    pub const ALL: [SpanKind; N_SPANS] = [
        SpanKind::Classify,
        SpanKind::McsOrder,
        SpanKind::Lemma1Order,
        SpanKind::Algorithm1,
        SpanKind::Algorithm2,
        SpanKind::ExactDp,
        SpanKind::Kmb,
        SpanKind::ArtifactBuild,
        SpanKind::QueueWait,
        SpanKind::Serve,
        SpanKind::SolveTotal,
    ];

    /// The stable label used as the `stage` metric label value.
    pub const fn label(self) -> &'static str {
        match self {
            SpanKind::Classify => "classify",
            SpanKind::McsOrder => "mcs_order",
            SpanKind::Lemma1Order => "lemma1_order",
            SpanKind::Algorithm1 => "algorithm1",
            SpanKind::Algorithm2 => "algorithm2",
            SpanKind::ExactDp => "exact_dp",
            SpanKind::Kmb => "kmb",
            SpanKind::ArtifactBuild => "artifact_build",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Serve => "serve",
            SpanKind::SolveTotal => "solve_total",
        }
    }

    /// The array index of this variant.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The chordality/acyclicity class a solve's schema landed in, most
/// specific first (the hierarchy is (4,1) ⊂ (6,2) ⊂ (6,1), Theorem 1).
/// One solve-duration histogram per class lives in the registry, so the
/// per-class performance envelopes of Theorems 3–5 are measurable per
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ClassLabel {
    /// (4,1)-chordal ⟺ Berge-acyclic.
    FourOne = 0,
    /// (6,2)-chordal ⟺ γ-acyclic (Algorithm 2 territory).
    SixTwo = 1,
    /// (6,1)-chordal ⟺ β-acyclic.
    SixOne = 2,
    /// Outside every tractable class (exact DP / KMB territory).
    OffClass = 3,
}

/// Number of [`ClassLabel`] variants (array dimension).
pub const N_CLASSES: usize = 4;

impl ClassLabel {
    /// Every variant, in index order.
    pub const ALL: [ClassLabel; N_CLASSES] = [
        ClassLabel::FourOne,
        ClassLabel::SixTwo,
        ClassLabel::SixOne,
        ClassLabel::OffClass,
    ];

    /// The stable label used as the `class` metric label value.
    pub const fn label(self) -> &'static str {
        match self {
            ClassLabel::FourOne => "four_one",
            ClassLabel::SixTwo => "six_two",
            ClassLabel::SixOne => "six_one",
            ClassLabel::OffClass => "off_class",
        }
    }

    /// The array index of this variant.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_agree_with_all_order() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, c) in ClassLabel::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn labels_are_prometheus_safe() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        assert!(SpanKind::ALL.iter().all(|k| ok(k.label())));
        assert!(ClassLabel::ALL.iter().all(|c| ok(c.label())));
    }
}
