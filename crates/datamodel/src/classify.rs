//! Schema audits: which of the paper's classes a schema belongs to, and
//! what that buys algorithmically.

use crate::relational::{Relation, RelationalSchema, RelationalSchemaError};
use mcc_chordality::{classify_bipartite, BipartiteClassification};
use mcc_hypergraph::{suggest_alpha_repair, AcyclicityDegree};
use std::fmt;

/// The audit result for a relational schema.
#[derive(Debug, Clone)]
pub struct SchemaReport {
    /// The schema's name.
    pub schema: String,
    /// Graph-side classification of the incidence bipartite graph.
    pub classification: BipartiteClassification,
    /// Hypergraph-side acyclicity degree of the schema hypergraph.
    pub degree: AcyclicityDegree,
    /// For cyclic schemas: covering relations whose addition restores
    /// α-acyclicity (one per cyclic core; empty otherwise). Attribute
    /// names, ready to paste into the schema.
    pub repair_suggestion: Vec<Vec<String>>,
}

impl SchemaReport {
    /// The strongest connection algorithm the paper licenses:
    /// a short human-readable recommendation string.
    pub fn recommendation(&self) -> &'static str {
        if self.classification.six_two {
            "Algorithm 2: full Steiner connections in O(|V|·|A|) (Theorem 5)"
        } else if self.classification.pseudo_steiner_v2_polynomial() {
            "Algorithm 1: minimum-relation connections in O(|V|·|A|) (Theorems 3-4); \
             full Steiner is NP-hard here (Theorem 2)"
        } else {
            "exact search or heuristics only: the schema is outside the paper's \
             tractable classes (Steiner and pseudo-Steiner are NP-hard in general)"
        }
    }
}

impl fmt::Display for SchemaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {:?}", self.schema)?;
        writeln!(f, "  acyclicity degree: {:?}", self.degree)?;
        for line in self.classification.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        write!(f, "  recommendation: {}", self.recommendation())?;
        if !self.repair_suggestion.is_empty() {
            let rendered: Vec<String> = self
                .repair_suggestion
                .iter()
                .map(|attrs| format!("({})", attrs.join(", ")))
                .collect();
            write!(f, "\n  alpha-repair: add {}", rendered.join(" and "))?;
        }
        Ok(())
    }
}

/// Audits a relational schema.
///
/// The acyclicity degree comes from the graph-side classification by
/// Theorem 1 ([`BipartiteClassification::h1_degree`]); the schema
/// hypergraph is built only when a cyclic schema needs a repair.
pub fn audit_relational(schema: &RelationalSchema) -> Result<SchemaReport, RelationalSchemaError> {
    let classification = classify_bipartite(&schema.to_bipartite()?);
    let degree = classification.h1_degree();
    let repair_suggestion = if degree >= AcyclicityDegree::Alpha {
        vec![]
    } else {
        let h = schema.to_hypergraph()?;
        suggest_alpha_repair(&h)
            .new_edges
            .iter()
            .map(|e| e.iter().map(|v| h.node_label(v).to_string()).collect())
            .collect()
    };
    Ok(SchemaReport {
        schema: schema.name.clone(),
        classification,
        degree,
        repair_suggestion,
    })
}

/// Applies a report's repair suggestion, returning the extended schema
/// (new relations named `FIX1, FIX2, …`). The result audits as
/// α-acyclic.
pub fn apply_repair_suggestion(
    schema: &RelationalSchema,
    report: &SchemaReport,
) -> RelationalSchema {
    let mut out = schema.clone();
    for (i, attrs) in report.repair_suggestion.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "`repair_suggestion` is built by `audit_relational` from this very attribute list, and repairs only append relations, never attributes"
        )]
        let indices = attrs
            .iter()
            .map(|a| {
                out.attributes
                    .iter()
                    .position(|x| x == a)
                    .expect("repair names come from the same schema")
            })
            .collect();
        out.relations.push(Relation {
            name: format!("FIX{}", i + 1),
            attributes: indices,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_schema_gets_algorithm1() {
        // α- but not β-acyclic: the covered triangle.
        let s = RelationalSchema::from_lists(
            "alpha",
            &["a", "b", "c"],
            &[
                ("r1", &[0, 1]),
                ("r2", &[1, 2]),
                ("r3", &[0, 2]),
                ("r4", &[0, 1, 2]),
            ],
        );
        let rep = audit_relational(&s).unwrap();
        assert_eq!(rep.degree, AcyclicityDegree::Alpha);
        assert!(rep.classification.pseudo_steiner_v2_polynomial());
        assert!(!rep.classification.six_two);
        assert!(rep.recommendation().contains("Algorithm 1"));
    }

    #[test]
    fn gamma_schema_gets_algorithm2() {
        let s = RelationalSchema::from_lists(
            "gamma",
            &["a", "b", "c"],
            &[("r1", &[0, 1]), ("r2", &[1, 2])],
        );
        let rep = audit_relational(&s).unwrap();
        assert!(rep.degree >= AcyclicityDegree::Gamma);
        assert!(rep.classification.six_two);
        assert!(rep.recommendation().contains("Algorithm 2"));
    }

    #[test]
    fn cyclic_schema_gets_the_bad_news() {
        let s = RelationalSchema::from_lists(
            "cyclic",
            &["a", "b", "c"],
            &[("r1", &[0, 1]), ("r2", &[1, 2]), ("r3", &[0, 2])],
        );
        let rep = audit_relational(&s).unwrap();
        assert_eq!(rep.degree, AcyclicityDegree::Cyclic);
        assert!(rep.recommendation().contains("NP-hard"));
        // The audit proposes a repair, and applying it works.
        assert_eq!(rep.repair_suggestion.len(), 1);
        let fixed = apply_repair_suggestion(&s, &rep);
        let rep2 = audit_relational(&fixed).unwrap();
        assert!(rep2.degree >= AcyclicityDegree::Alpha);
        assert!(rep2.repair_suggestion.is_empty());
        assert!(rep.to_string().contains("alpha-repair"));
    }

    #[test]
    fn display_contains_all_sections() {
        let s = RelationalSchema::from_lists("d", &["a", "b"], &[("r", &[0, 1])]);
        let rep = audit_relational(&s).unwrap();
        let out = rep.to_string();
        assert!(out.contains("acyclicity degree"));
        assert!(out.contains("recommendation"));
        assert!(out.contains("(6,2)-chordal"));
    }

    #[test]
    fn theorem1_consistency_between_views() {
        // The graph-side and hypergraph-side views must agree (Theorem 1).
        for (name, attrs, rels) in [
            (
                "t1",
                vec!["a", "b", "c", "d"],
                vec![
                    ("r1", vec![0usize, 1]),
                    ("r2", vec![1, 2]),
                    ("r3", vec![2, 3]),
                ],
            ),
            (
                "t2",
                vec!["a", "b", "c"],
                vec![("r1", vec![0, 1]), ("r2", vec![1, 2]), ("r3", vec![0, 2])],
            ),
        ] {
            let s = RelationalSchema::from_lists(
                name,
                &attrs,
                &rels
                    .iter()
                    .map(|(n, a)| (*n, a.as_slice()))
                    .collect::<Vec<_>>(),
            );
            let rep = audit_relational(&s).unwrap();
            assert_eq!(
                rep.degree >= AcyclicityDegree::Gamma,
                rep.classification.six_two,
                "{name}"
            );
            assert_eq!(
                rep.degree >= AcyclicityDegree::Beta,
                rep.classification.six_one,
                "{name}"
            );
            assert_eq!(
                rep.degree >= AcyclicityDegree::Alpha,
                rep.classification.h1_alpha_acyclic(),
                "{name}"
            );
        }
    }
}
