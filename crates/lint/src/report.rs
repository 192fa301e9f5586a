//! Machine-readable reporting: byte-deterministic JSON and SARIF 2.1.0
//! writers.
//!
//! Determinism is load-bearing: CI archives the SARIF artifact and the
//! golden tests pin both formats byte-for-byte, so the writers are
//! hand-rolled (no dependency, no map-iteration-order hazards — the
//! diagnostic list arrives already sorted by (file, line, rule)).

use crate::rules::RULES;
use crate::Diagnostic;

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as the tool's native JSON report.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"mcc-lint\",\n  \"version\": 1,\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.file),
            d.line,
            esc(d.rule),
            esc(&d.message)
        ));
    }
    if diags.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str(&format!("  \"count\": {}\n}}\n", diags.len()));
    out
}

/// Renders diagnostics as a SARIF 2.1.0 log (the format CI archives and
/// code-review UIs ingest).
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"mcc-lint\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            esc(r.name),
            esc(r.desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|r| r.name == d.rule)
            .unwrap_or_default();
        out.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            esc(d.rule),
            rule_index,
            esc(&d.message),
            esc(&d.file),
            d.line
        ));
    }
    if diags.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: usize, rule: &'static str, msg: &str) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message: msg.into(),
        }
    }

    #[test]
    fn json_escapes_and_counts() {
        let d = vec![diag("a.rs", 3, "lock-order", "say \"hi\"\nthere")];
        let j = to_json(&d);
        assert!(j.contains("\\\"hi\\\"\\nthere"));
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn sarif_lists_all_rules_and_results() {
        let d = vec![diag("a.rs", 3, "condvar-discipline", "m")];
        let s = to_sarif(&d);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"id\": \"lock-order\""));
        assert!(s.contains("\"startLine\": 3"));
    }
}
