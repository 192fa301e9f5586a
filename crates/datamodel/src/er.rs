//! Entity-relationship schemas and their concept graphs (Fig. 1).

use mcc_graph::{Graph, GraphBuilder, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An entity type with its attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entity {
    /// Entity name (unique among entities).
    pub name: String,
    /// Attribute names. Attributes are **global**: two entities naming
    /// the same attribute share the concept node (this is what makes the
    /// EMPLOYEE–DATE query of the introduction ambiguous).
    pub attributes: Vec<String>,
}

/// A relationship type over entities, possibly with its own attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relationship {
    /// Relationship name (unique among relationships).
    pub name: String,
    /// Names of the participating entities.
    pub entities: Vec<String>,
    /// Attribute names owned by the relationship.
    pub attributes: Vec<String>,
}

/// An entity-relationship schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErSchema {
    /// Schema name, for reports.
    pub name: String,
    /// The entity types.
    pub entities: Vec<Entity>,
    /// The relationship types.
    pub relationships: Vec<Relationship>,
}

/// The conceptual level of a node in the concept graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An attribute (lowest level).
    Attribute,
    /// An entity (aggregates attributes).
    Entity,
    /// A relationship (aggregates entities and attributes).
    Relationship,
}

/// The k-partite concept graph of an ER schema: one node per concept,
/// arcs between a concept and the objects it aggregates.
#[derive(Debug, Clone)]
pub struct ErGraph {
    /// The concept graph (3-partite: attributes / entities /
    /// relationships).
    pub graph: Graph,
    /// Level of each node.
    pub kind: Vec<NodeKind>,
}

impl ErGraph {
    /// Node lookup by concept name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.graph.node_by_label(name)
    }

    /// The nodes of a given level.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(move |v| self.kind[v.index()] == kind)
    }
}

/// Validation failures of an [`ErSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErSchemaError {
    /// Two entities or two relationships share a name, or a name is used
    /// both as a concept and an attribute.
    DuplicateName(String),
    /// A relationship references an undeclared entity.
    UnknownEntity {
        /// The offending relationship.
        relationship: String,
        /// The missing entity name.
        entity: String,
    },
}

impl std::fmt::Display for ErSchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErSchemaError::DuplicateName(n) => write!(f, "duplicate concept name {n:?}"),
            ErSchemaError::UnknownEntity {
                relationship,
                entity,
            } => {
                write!(
                    f,
                    "relationship {relationship:?} references unknown entity {entity:?}"
                )
            }
        }
    }
}

impl std::error::Error for ErSchemaError {}

impl ErSchema {
    /// Builds the concept graph, validating the schema.
    pub fn to_graph(&self) -> Result<ErGraph, ErSchemaError> {
        let mut b = GraphBuilder::new();
        let mut kind: Vec<NodeKind> = Vec::new();
        let mut by_name: HashMap<&str, NodeId> = HashMap::new();

        // Attributes first (shared by name).
        let attr_node = |b: &mut GraphBuilder,
                         kind: &mut Vec<NodeKind>,
                         by_name: &mut HashMap<&str, NodeId>,
                         name: &'_ str|
         -> NodeId {
            // Attributes may repeat; concepts may not (checked later).
            if let Some(&v) = by_name.get(name) {
                return v;
            }
            let v = b.add_node(name);
            kind.push(NodeKind::Attribute);
            v
        };

        // Two passes: create attribute nodes lazily while adding concept
        // nodes, wiring arcs as we go.
        let mut entity_ids: HashMap<&str, NodeId> = HashMap::new();
        for e in &self.entities {
            if by_name.contains_key(e.name.as_str()) || entity_ids.contains_key(e.name.as_str()) {
                return Err(ErSchemaError::DuplicateName(e.name.clone()));
            }
            let ev = b.add_node(&e.name);
            kind.push(NodeKind::Entity);
            entity_ids.insert(&e.name, ev);
            for a in &e.attributes {
                if entity_ids.contains_key(a.as_str()) {
                    return Err(ErSchemaError::DuplicateName(a.clone()));
                }
                let av = attr_node(&mut b, &mut kind, &mut by_name, a);
                by_name.insert(a, av);
                #[expect(
                    clippy::expect_used,
                    reason = "`ev` and `av` both came from this builder's `add_node`, so the only failure mode (out-of-range id) cannot occur"
                )]
                b.add_edge(ev, av).expect("fresh ids");
            }
        }
        let mut rel_names: HashMap<&str, NodeId> = HashMap::new();
        for rl in &self.relationships {
            if by_name.contains_key(rl.name.as_str())
                || entity_ids.contains_key(rl.name.as_str())
                || rel_names.contains_key(rl.name.as_str())
            {
                return Err(ErSchemaError::DuplicateName(rl.name.clone()));
            }
            let rv = b.add_node(&rl.name);
            kind.push(NodeKind::Relationship);
            rel_names.insert(&rl.name, rv);
            for en in &rl.entities {
                let Some(&ev) = entity_ids.get(en.as_str()) else {
                    return Err(ErSchemaError::UnknownEntity {
                        relationship: rl.name.clone(),
                        entity: en.clone(),
                    });
                };
                #[expect(
                    clippy::expect_used,
                    reason = "both ids were minted by this builder above"
                )]
                b.add_edge(rv, ev).expect("ids valid");
            }
            for a in &rl.attributes {
                if entity_ids.contains_key(a.as_str()) || rel_names.contains_key(a.as_str()) {
                    return Err(ErSchemaError::DuplicateName(a.clone()));
                }
                let av = attr_node(&mut b, &mut kind, &mut by_name, a);
                by_name.insert(a, av);
                #[expect(
                    clippy::expect_used,
                    reason = "both ids were minted by this builder above"
                )]
                b.add_edge(rv, av).expect("ids valid");
            }
        }
        Ok(ErGraph {
            graph: b.build(),
            kind,
        })
    }
}

/// The paper's Fig. 1 schema: EMPLOYEE (NAME, DATE) — WORKS (DATE) —
/// DEPARTMENT (D#); the DATE attribute is shared between the EMPLOYEE
/// entity (birthdate) and the WORKS relationship (hire date), which
/// creates the two interpretations discussed in the introduction.
pub fn fig1_schema() -> ErSchema {
    ErSchema {
        name: "fig1".into(),
        entities: vec![
            Entity {
                name: "EMPLOYEE".into(),
                attributes: vec!["NAME".into(), "DATE".into()],
            },
            Entity {
                name: "DEPARTMENT".into(),
                attributes: vec!["D#".into()],
            },
        ],
        relationships: vec![Relationship {
            name: "WORKS".into(),
            entities: vec!["EMPLOYEE".into(), "DEPARTMENT".into()],
            attributes: vec!["DATE".into()],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_graph_shape() {
        let g = fig1_schema().to_graph().unwrap();
        // Nodes: NAME, DATE, D#, EMPLOYEE, DEPARTMENT, WORKS = 6.
        assert_eq!(g.graph.node_count(), 6);
        let emp = g.node("EMPLOYEE").unwrap();
        let date = g.node("DATE").unwrap();
        let works = g.node("WORKS").unwrap();
        assert!(g.graph.has_edge(emp, date)); // birthdate
        assert!(g.graph.has_edge(works, date)); // hire date
        assert_eq!(g.kind[emp.index()], NodeKind::Entity);
        assert_eq!(g.kind[date.index()], NodeKind::Attribute);
        assert_eq!(g.kind[works.index()], NodeKind::Relationship);
        assert_eq!(g.nodes_of_kind(NodeKind::Attribute).count(), 3);
    }

    #[test]
    fn shared_attributes_create_one_node() {
        let g = fig1_schema().to_graph().unwrap();
        let date = g.node("DATE").unwrap();
        // DATE touches both EMPLOYEE and WORKS.
        assert_eq!(g.graph.degree(date), 2);
    }

    #[test]
    fn duplicate_entity_rejected() {
        let mut s = fig1_schema();
        s.entities.push(Entity {
            name: "EMPLOYEE".into(),
            attributes: vec![],
        });
        assert!(matches!(s.to_graph(), Err(ErSchemaError::DuplicateName(_))));
    }

    #[test]
    fn unknown_entity_rejected() {
        let mut s = fig1_schema();
        s.relationships[0].entities.push("GHOST".into());
        assert!(matches!(
            s.to_graph(),
            Err(ErSchemaError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn schema_types_are_serde_capable() {
        // Compile-time check that the derives are in place (the workspace
        // deliberately avoids pulling a JSON crate just for this).
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<ErSchema>();
        assert_serde::<Entity>();
        assert_serde::<Relationship>();
        assert_serde::<NodeKind>();
    }
}
