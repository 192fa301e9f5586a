//! The classic ER → relational translation.
//!
//! Each entity becomes a relation over a synthesized key plus its
//! attributes; each relationship becomes a relation over the keys of its
//! participants plus its own attributes. Attribute identity stays
//! name-global (as in [`crate::er`]), so the translated schema exhibits
//! the same conceptual connections as the ER graph — e.g. the Fig. 1
//! EMPLOYEE/DATE ambiguity survives translation, now as two relational
//! access paths.

use crate::er::{ErSchema, ErSchemaError};
use crate::relational::{Relation, RelationalSchema};

/// The synthesized key attribute name of an entity.
pub fn entity_key(entity: &str) -> String {
    format!("{}#", entity.to_lowercase())
}

/// Translates an ER schema to a relational schema (validating the ER
/// schema on the way).
pub fn er_to_relational(er: &ErSchema) -> Result<RelationalSchema, ErSchemaError> {
    // Reuse the ER validator.
    er.to_graph()?;

    let mut attributes: Vec<String> = Vec::new();
    let index = |name: &str, attributes: &mut Vec<String>| -> usize {
        match attributes.iter().position(|a| a == name) {
            Some(i) => i,
            None => {
                attributes.push(name.to_string());
                attributes.len() - 1
            }
        }
    };

    let mut relations = Vec::new();
    for e in &er.entities {
        let mut attrs = vec![index(&entity_key(&e.name), &mut attributes)];
        for a in &e.attributes {
            attrs.push(index(a, &mut attributes));
        }
        relations.push(Relation {
            name: e.name.clone(),
            attributes: attrs,
        });
    }
    for r in &er.relationships {
        let mut attrs: Vec<usize> = r
            .entities
            .iter()
            .map(|e| index(&entity_key(e), &mut attributes))
            .collect();
        for a in &r.attributes {
            attrs.push(index(a, &mut attributes));
        }
        attrs.dedup(); // a reflexive relationship repeats its key
        relations.push(Relation {
            name: r.name.clone(),
            attributes: attrs,
        });
    }
    Ok(RelationalSchema {
        name: er.name.clone(),
        attributes,
        relations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::fig1_schema;
    use crate::query::QueryEngine;

    #[test]
    fn fig1_translates_to_three_relations() {
        let rel = er_to_relational(&fig1_schema()).unwrap();
        assert_eq!(rel.relations.len(), 3);
        let works = rel.relations.iter().find(|r| r.name == "WORKS").unwrap();
        let names: Vec<&str> = works
            .attributes
            .iter()
            .map(|&i| rel.attributes[i].as_str())
            .collect();
        assert_eq!(names, vec!["employee#", "department#", "DATE"]);
    }

    #[test]
    fn shared_attribute_still_creates_two_access_paths() {
        let rel = er_to_relational(&fig1_schema()).unwrap();
        // DATE occurs in both EMPLOYEE and WORKS.
        let date = rel.attributes.iter().position(|a| a == "DATE").unwrap();
        let holders: Vec<&str> = rel
            .relations
            .iter()
            .filter(|r| r.attributes.contains(&date))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(holders, vec!["EMPLOYEE", "WORKS"]);
    }

    #[test]
    fn translated_schema_is_queryable() {
        let rel = er_to_relational(&fig1_schema()).unwrap();
        let engine = QueryEngine::new(rel).unwrap();
        // Connect an EMPLOYEE attribute to a DEPARTMENT attribute: must
        // route through WORKS via the key attributes.
        let it = engine.connect(&["NAME", "D#"]).unwrap();
        assert!(it.relations().any(|r| r == "WORKS"));
        // EMPLOYEE ⋈ WORKS may go through the key or the shared DATE
        // (both are single-attribute joins); WORKS ⋈ DEPARTMENT has only
        // the key.
        assert!(it.attributes().any(|a| a == "employee#" || a == "DATE"));
        assert!(it.attributes().any(|a| a == "department#"));
    }

    #[test]
    fn invalid_er_schema_propagates() {
        let mut s = fig1_schema();
        s.relationships[0].entities.push("GHOST".into());
        assert!(er_to_relational(&s).is_err());
    }

    #[test]
    fn entity_key_format() {
        assert_eq!(entity_key("EMPLOYEE"), "employee#");
    }
}
