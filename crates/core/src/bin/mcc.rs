//! `mcc` — command-line front end for the minimal-connection library.
//!
//! ```sh
//! mcc classify <schema-file>               # chordality/acyclicity audit
//! mcc connect  <schema-file> OBJ [OBJ...]  # minimal connection + join plan
//! mcc interpret <schema-file> OBJ [OBJ...] # ranked alternative readings
//! mcc dot      <schema-file>               # Graphviz DOT of the schema graph
//! mcc demo                                 # run on a built-in sample schema
//! ```
//!
//! Schema files use the one-relation-per-line DSL of
//! `mcc_datamodel::dsl`:
//!
//! ```text
//! schema university
//! ENROLLED(student, course, grade)
//! TEACHES(course, lecturer)
//! LOCATED(lecturer, room)
//! ```

use mcc::datamodel::{
    audit_relational, join_plan, parse_schema, try_enumerate_tree_interpretations, QueryEngine,
    RelationalSchema,
};
use std::process::ExitCode;

const DEMO_SCHEMA: &str = "\
schema university
ENROLLED(student, course, grade)
TEACHES(course, lecturer)
LOCATED(lecturer, room)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  mcc classify  <schema-file>");
            eprintln!("  mcc connect   <schema-file> OBJECT [OBJECT...]");
            eprintln!("  mcc interpret <schema-file> OBJECT [OBJECT...]");
            eprintln!("  mcc dot       <schema-file>");
            eprintln!("  mcc demo");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args
        .first()
        .map(String::as_str)
        .ok_or("missing subcommand")?;
    match cmd {
        "classify" => {
            let schema = load(args.get(1).ok_or("missing schema file")?)?;
            classify(&schema)
        }
        "connect" => {
            let schema = load(args.get(1).ok_or("missing schema file")?)?;
            connect(&schema, &args[2..])
        }
        "interpret" => {
            let schema = load(args.get(1).ok_or("missing schema file")?)?;
            interpret(&schema, &args[2..])
        }
        "dot" => {
            let schema = load(args.get(1).ok_or("missing schema file")?)?;
            let bg = schema.to_bipartite().map_err(|e| e.to_string())?;
            print!("{}", mcc::graph::dot::bipartite_to_dot(&bg, &schema.name));
            Ok(())
        }
        "demo" => {
            let schema = parse_schema(DEMO_SCHEMA).map_err(|e| e.to_string())?;
            classify(&schema)?;
            println!();
            connect(&schema, &["student".into(), "room".into()])?;
            println!();
            interpret(&schema, &["student".into(), "lecturer".into()])
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load(path: &str) -> Result<RelationalSchema, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    parse_schema(&text).map_err(|e| format!("{path}: {e}"))
}

fn classify(schema: &RelationalSchema) -> Result<(), String> {
    let report = audit_relational(schema).map_err(|e| e.to_string())?;
    println!("{report}");
    // When the schema misses a class, say why, with concrete witnesses.
    if !report.classification.six_two {
        let bg = schema.to_bipartite().map_err(|e| e.to_string())?;
        print!("{}", mcc::chordality::explain_classification(&bg));
    }
    Ok(())
}

fn connect(schema: &RelationalSchema, objects: &[String]) -> Result<(), String> {
    if objects.is_empty() {
        return Err("connect needs at least one object name".into());
    }
    let engine = QueryEngine::new(schema.clone()).map_err(|e| e.to_string())?;
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    let it = engine.connect(&names).map_err(|e| e.to_string())?;
    println!("query {names:?} via {:?}:", it.strategy);
    let relations: Vec<&str> = it.relations().collect();
    let attributes: Vec<&str> = it.attributes().collect();
    println!("  relations:  {}", relations.join(", "));
    println!("  attributes: {}", attributes.join(", "));
    // Projection = the queried *attributes* (queried relations only join).
    let projection: Vec<String> = objects
        .iter()
        .filter(|o| schema.attributes.contains(o))
        .cloned()
        .collect();
    let plan = join_plan(schema, engine.graph(), &it, &projection).map_err(|e| e.to_string())?;
    println!("  plan:       {plan}");
    Ok(())
}

fn interpret(schema: &RelationalSchema, objects: &[String]) -> Result<(), String> {
    if objects.is_empty() {
        return Err("interpret needs at least one object name".into());
    }
    let engine = QueryEngine::new(schema.clone()).map_err(|e| e.to_string())?;
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    let terminals = engine.resolve(&names).map_err(|e| e.to_string())?;
    let g = engine.graph().graph();
    let alts =
        try_enumerate_tree_interpretations(g, &terminals, 5, 2).map_err(|e| e.to_string())?;
    if alts.is_empty() {
        return Err("the named objects cannot be connected".into());
    }
    println!("interpretations of {names:?} (minimal first):");
    for (i, tree) in alts.iter().enumerate() {
        let arcs: Vec<String> = tree
            .edges
            .iter()
            .map(|(a, b)| format!("{}--{}", g.label(*a), g.label(*b)))
            .collect();
        println!(
            "  {}. {} objects ({} auxiliary): {}",
            i + 1,
            tree.node_cost(),
            tree.node_cost() - terminals.len(),
            arcs.join(", ")
        );
    }
    Ok(())
}
