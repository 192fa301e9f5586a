//! A tiny textual schema format, so schemas can live in files and reach
//! the examples/CLI without a JSON dependency.
//!
//! ```text
//! # comments start with '#'
//! schema university
//! ENROLLED(student, course, grade)
//! TEACHES(course, lecturer)
//! LOCATED(lecturer, room)
//! ```
//!
//! One relation per line, `NAME(attr, attr, …)`. Attribute identity is
//! by name across relations (that is what creates connections). The
//! `schema <name>` header is optional; the first header wins.

use crate::relational::{Relation, RelationalSchema};
use std::fmt;

/// Parse errors with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses the schema DSL.
pub fn parse_schema(text: &str) -> Result<RelationalSchema, ParseError> {
    let mut name = "unnamed".to_string();
    let mut saw_name = false;
    let mut attributes: Vec<String> = Vec::new();
    let mut relations: Vec<Relation> = Vec::new();

    let attr_index = |a: &str, attributes: &mut Vec<String>| -> usize {
        match attributes.iter().position(|x| x == a) {
            Some(i) => i,
            None => {
                attributes.push(a.to_string());
                attributes.len() - 1
            }
        }
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseError {
            line: lineno + 1,
            message,
        };
        if line == "schema" {
            return Err(err("empty schema name".into()));
        }
        if let Some(rest) = line.strip_prefix("schema ") {
            if !saw_name {
                name = rest.trim().to_string();
                if name.is_empty() {
                    return Err(err("empty schema name".into()));
                }
                saw_name = true;
            }
            continue;
        }
        // NAME(attr, attr, ...)
        let Some(open) = line.find('(') else {
            return Err(err(format!("expected `NAME(...)`, got {line:?}")));
        };
        if !line.ends_with(')') {
            return Err(err("missing closing parenthesis".into()));
        }
        let rel_name = line[..open].trim();
        if rel_name.is_empty() {
            return Err(err("empty relation name".into()));
        }
        if relations.iter().any(|r| r.name == rel_name) {
            return Err(err(format!("duplicate relation {rel_name:?}")));
        }
        let inner = &line[open + 1..line.len() - 1];
        let mut attrs = Vec::new();
        for part in inner.split(',') {
            let a = part.trim();
            if a.is_empty() {
                return Err(err("empty attribute name".into()));
            }
            let idx = attr_index(a, &mut attributes);
            if attrs.contains(&idx) {
                return Err(err(format!("attribute {a:?} repeated in {rel_name:?}")));
            }
            attrs.push(idx);
        }
        if attrs.is_empty() {
            return Err(err(format!("relation {rel_name:?} has no attributes")));
        }
        relations.push(Relation {
            name: rel_name.to_string(),
            attributes: attrs,
        });
    }
    Ok(RelationalSchema {
        name,
        attributes,
        relations,
    })
}

/// Renders a schema back into the DSL (inverse of [`parse_schema`] up to
/// whitespace).
pub fn render_schema(schema: &RelationalSchema) -> String {
    let mut out = format!("schema {}\n", schema.name);
    for r in &schema.relations {
        let attrs: Vec<&str> = r
            .attributes
            .iter()
            .map(|&i| schema.attributes[i].as_str())
            .collect();
        out.push_str(&format!("{}({})\n", r.name, attrs.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
schema university
ENROLLED(student, course, grade)
TEACHES(course, lecturer)   # inline comment
LOCATED(lecturer, room)
";

    #[test]
    fn parses_the_sample() {
        let s = parse_schema(SAMPLE).unwrap();
        assert_eq!(s.name, "university");
        assert_eq!(s.relations.len(), 3);
        assert_eq!(s.attributes.len(), 5);
        // `course` is shared between ENROLLED and TEACHES.
        let course = s.attributes.iter().position(|a| a == "course").unwrap();
        assert!(s.relations[0].attributes.contains(&course));
        assert!(s.relations[1].attributes.contains(&course));
    }

    #[test]
    fn roundtrips_through_render() {
        let s = parse_schema(SAMPLE).unwrap();
        let s2 = parse_schema(&render_schema(&s)).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn parsed_schema_feeds_the_query_engine() {
        let s = parse_schema(SAMPLE).unwrap();
        let engine = crate::QueryEngine::new(s).unwrap();
        let it = engine.connect(&["student", "room"]).unwrap();
        assert_eq!(it.relations().count(), 3);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let err = parse_schema("R(a,b)\nbroken line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("NAME"));
        let err = parse_schema("R(a,a)").unwrap_err();
        assert!(err.message.contains("repeated"));
        let err = parse_schema("R()").unwrap_err();
        assert!(err.message.contains("empty attribute") || err.message.contains("no attributes"));
        let err = parse_schema("R(a,b)\nR(c)").unwrap_err();
        assert!(err.message.contains("duplicate"));
        let err = parse_schema("R(a").unwrap_err();
        assert!(err.message.contains("closing"));
        let err = parse_schema("schema \nR(a)").unwrap_err();
        assert!(err.message.contains("empty schema name"));
    }

    #[test]
    fn missing_header_defaults_name() {
        let s = parse_schema("R(a, b)").unwrap();
        assert_eq!(s.name, "unnamed");
    }
}
