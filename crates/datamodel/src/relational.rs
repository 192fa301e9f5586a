//! Relational schemas ⟷ hypergraphs ⟷ bipartite graphs.

use mcc_graph::BipartiteGraph;
use mcc_hypergraph::{incidence_bipartite, Hypergraph, HypergraphBuilder};
use serde::{Deserialize, Serialize};

/// A relation scheme: a name plus the indices of its attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    /// Relation name.
    pub name: String,
    /// Indices into [`RelationalSchema::attributes`].
    pub attributes: Vec<usize>,
}

/// A relational database schema: the attribute universe plus the relation
/// schemes — exactly a hypergraph with named nodes and edges, and hence
/// (Definition 2) a bipartite graph with attributes on `V1` and relations
/// on `V2`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationalSchema {
    /// Schema name, for reports.
    pub name: String,
    /// The attribute names.
    pub attributes: Vec<String>,
    /// The relation schemes.
    pub relations: Vec<Relation>,
}

/// Schema validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationalSchemaError {
    /// A relation scheme has no attributes (hyperedges must be nonempty).
    EmptyRelation(String),
    /// A relation references an attribute index outside the universe.
    AttributeOutOfRange {
        /// The offending relation.
        relation: String,
        /// The bad index.
        index: usize,
    },
}

impl std::fmt::Display for RelationalSchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationalSchemaError::EmptyRelation(r) => {
                write!(f, "relation {r:?} has no attributes")
            }
            RelationalSchemaError::AttributeOutOfRange { relation, index } => {
                write!(
                    f,
                    "relation {relation:?} references attribute index {index} out of range"
                )
            }
        }
    }
}

impl std::error::Error for RelationalSchemaError {}

impl RelationalSchema {
    /// A convenience constructor from label lists.
    pub fn from_lists(name: &str, attributes: &[&str], relations: &[(&str, &[usize])]) -> Self {
        RelationalSchema {
            name: name.into(),
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            relations: relations
                .iter()
                .map(|(n, a)| Relation {
                    name: n.to_string(),
                    attributes: a.to_vec(),
                })
                .collect(),
        }
    }

    /// The schema as a hypergraph (attributes = nodes, relations =
    /// edges) — the `H¹` view.
    pub fn to_hypergraph(&self) -> Result<Hypergraph, RelationalSchemaError> {
        let mut b = HypergraphBuilder::new();
        let nodes: Vec<_> = self.attributes.iter().map(|a| b.add_node(a)).collect();
        for r in &self.relations {
            if r.attributes.is_empty() {
                return Err(RelationalSchemaError::EmptyRelation(r.name.clone()));
            }
            for &i in &r.attributes {
                if i >= nodes.len() {
                    return Err(RelationalSchemaError::AttributeOutOfRange {
                        relation: r.name.clone(),
                        index: i,
                    });
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "emptiness and index range were both rejected with an `Err` just above, which are `add_edge`'s only failure modes"
            )]
            b.add_edge(&r.name, r.attributes.iter().map(|&i| nodes[i]))
                .expect("validated nonempty");
        }
        Ok(b.build())
    }

    /// The schema as a bipartite graph: attribute nodes
    /// (`0..attributes.len()`) on `V1`, relation nodes following, on
    /// `V2` — Definition 2's correspondence.
    pub fn to_bipartite(&self) -> Result<BipartiteGraph, RelationalSchemaError> {
        Ok(incidence_bipartite(&self.to_hypergraph()?))
    }

    /// A stable structural fingerprint of the schema (FNV-1a over the
    /// name, attribute names, and relation schemes, in declaration
    /// order). Equal schemas always fingerprint equal, so an artifact
    /// cache can use the fingerprint as a cheap first-pass dedup key and
    /// fall back to full `==` only on a match; the value is deterministic
    /// across processes (unlike `DefaultHasher`), so it is safe to
    /// persist or log.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            // Length terminator so ["ab"] and ["a","b"] differ.
            h ^= bytes.len() as u64;
            h = h.wrapping_mul(PRIME);
        };
        eat(self.name.as_bytes());
        for a in &self.attributes {
            eat(a.as_bytes());
        }
        for r in &self.relations {
            eat(r.name.as_bytes());
            for &i in &r.attributes {
                eat(&(i as u64).to_le_bytes());
            }
        }
        h
    }

    /// Rebuilds a schema from a hypergraph (inverse of
    /// [`RelationalSchema::to_hypergraph`] up to validation).
    pub fn from_hypergraph(name: &str, h: &Hypergraph) -> Self {
        RelationalSchema {
            name: name.into(),
            attributes: h.nodes().map(|v| h.node_label(v).to_string()).collect(),
            relations: h
                .edge_ids()
                .map(|e| Relation {
                    name: h.edge_label(e).to_string(),
                    attributes: h.edge(e).iter().map(|v| v.index()).collect(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::Side;

    fn sample() -> RelationalSchema {
        RelationalSchema::from_lists(
            "s",
            &["a", "b", "c", "d"],
            &[("r1", &[0, 1]), ("r2", &[1, 2, 3])],
        )
    }

    #[test]
    fn hypergraph_roundtrip() {
        let s = sample();
        let h = s.to_hypergraph().unwrap();
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.edge_count(), 2);
        let back = RelationalSchema::from_hypergraph("s", &h);
        assert_eq!(back, s);
    }

    #[test]
    fn bipartite_sides() {
        let bg = sample().to_bipartite().unwrap();
        assert_eq!(bg.side_count(Side::V1), 4);
        assert_eq!(bg.side_count(Side::V2), 2);
        let r2 = bg.graph().node_by_label("r2").unwrap();
        assert_eq!(bg.graph().degree(r2), 3);
    }

    #[test]
    fn validation_errors() {
        let s = RelationalSchema::from_lists("bad", &["a"], &[("r", &[])]);
        assert!(matches!(
            s.to_hypergraph(),
            Err(RelationalSchemaError::EmptyRelation(_))
        ));
        let s = RelationalSchema::from_lists("bad", &["a"], &[("r", &[5])]);
        assert!(matches!(
            s.to_hypergraph(),
            Err(RelationalSchemaError::AttributeOutOfRange { .. })
        ));
    }

    #[test]
    fn fingerprint_separates_structure() {
        let s = sample();
        assert_eq!(s.fingerprint(), sample().fingerprint());
        let mut renamed = sample();
        renamed.attributes[0] = "z".into();
        assert_ne!(s.fingerprint(), renamed.fingerprint());
        let mut rewired = sample();
        rewired.relations[0].attributes = vec![0, 2];
        assert_ne!(s.fingerprint(), rewired.fingerprint());
        // Attribute-list boundaries matter: ["ab"] vs ["a", "b"].
        let joined = RelationalSchema::from_lists("s", &["ab"], &[]);
        let split = RelationalSchema::from_lists("s", &["a", "b"], &[]);
        assert_ne!(joined.fingerprint(), split.fingerprint());
    }

    #[test]
    fn schema_types_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RelationalSchema>();
        assert_send_sync::<Relation>();
        assert_send_sync::<RelationalSchemaError>();
        // The query engine itself is Send (movable into a worker thread);
        // its interior workspace keeps it intentionally !Sync.
        fn assert_send<T: Send>() {}
        assert_send::<crate::QueryEngine>();
    }

    #[test]
    fn serde_capable() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<RelationalSchema>();
        assert_serde::<Relation>();
    }
}
