//! `mcc-lint` CLI — run the workspace static-analysis pass.
//!
//! ```text
//! mcc-lint [--root DIR] [--format text|json|sarif] [--output FILE] [--list-rules]
//! ```
//!
//! `--format json|sarif` emits a byte-deterministic machine report (to
//! stdout, or to `--output FILE`); the human summary goes to stderr.
//!
//! Exit codes: 0 clean, 1 diagnostics reported, 2 usage or I/O error.

use std::process::ExitCode;

use mcc_lint::{report, resolve_root, rules, Diagnostic};

/// Output format selection.
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str =
    "mcc-lint [--root DIR] [--format text|json|sarif] [--output FILE] [--list-rules]";

fn main() -> ExitCode {
    let mut root: Option<String> = None;
    let mut format = Format::Text;
    let mut output: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{:20} {}", r.name, r.desc);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(dir),
                None => return usage("--root requires a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage(&format!("unknown format `{other}` (text|json|sarif)"))
                }
                None => return usage("--format requires text|json|sarif"),
            },
            "--output" => match args.next() {
                Some(path) => output = Some(path),
                None => return usage("--output requires a file path"),
            },
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\
                     Workspace static analysis: repo concurrency invariants as machine-checked rules."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = resolve_root(root.as_deref());
    let diags = match mcc_lint::run(&root.join("crates")) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("mcc-lint: error: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match format {
        Format::Text => None,
        Format::Json => Some(report::to_json(&diags)),
        Format::Sarif => Some(report::to_sarif(&diags)),
    };
    if let Some(body) = rendered {
        match &output {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &body) {
                    eprintln!("mcc-lint: error: writing {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            None => print!("{body}"),
        }
    }

    summarize(&diags, matches!(format, Format::Text))
}

/// Prints the human-facing summary and picks the exit code.
fn summarize(diags: &[Diagnostic], text_mode: bool) -> ExitCode {
    if diags.is_empty() {
        eprintln!("mcc-lint: clean ({} rules)", rules::RULES.len());
        return ExitCode::SUCCESS;
    }
    if text_mode {
        for d in diags {
            eprintln!("{d}");
        }
    }
    eprintln!("mcc-lint: {} violation(s)", diags.len());
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("mcc-lint: {msg}");
    eprintln!("usage: {USAGE}");
    ExitCode::from(2)
}
