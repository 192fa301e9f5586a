//! A minimal, dependency-free Rust lexer for the lint pass.
//!
//! The rules in [`crate::rules`] never need a full parse — they need to
//! know, reliably, that a pattern like `.lock()` occurs in *code*
//! rather than inside a string literal or a comment, which function a
//! token belongs to, and whether a region is `#[cfg(test)]`-gated. This
//! module produces exactly that much structure:
//!
//! * a **sanitized** copy of the source in which comment bodies and
//!   string/char-literal contents are blanked out (newlines preserved,
//!   so byte offsets map to the same lines);
//! * a **token stream** over the sanitized text (identifiers, `::`, and
//!   single punctuation characters) with a source line per token;
//! * per-line **directives** harvested from comments — the
//!   `// lint:allow(<rule>)` escape hatch;
//! * **test-region** marking: every brace block introduced by a
//!   `#[cfg(test)]` or `#[test]` attribute.
//!
//! Raw strings (`r#"…"#`, `br"…"`), nested block comments, and the
//! char-literal/lifetime ambiguity (`'a'` vs `'a`) are handled; macro
//! expansion and conditional compilation are not (the lint reads source,
//! not semantics — that is the point).

/// One token of the sanitized source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// The token text: an identifier/number, the path separator `::`, or
    /// a single punctuation character.
    pub text: String,
    /// 0-based source line the token starts on.
    pub line: usize,
}

/// Per-line facts harvested during lexing.
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Rules named by `lint:allow(...)` directives in comments on this
    /// line.
    pub allows: Vec<String>,
    /// Whether the line holds only comment text (no code) — directives on
    /// such lines extend downward to the next code line.
    pub comment_only: bool,
    /// Whether the line lies inside a `#[cfg(test)]` / `#[test]` block.
    pub test: bool,
}

/// The full lexical analysis of one source file.
#[derive(Debug)]
pub struct Analysis {
    /// Source with comment bodies and literal contents blanked.
    pub sanitized: String,
    /// Token stream over `sanitized`.
    pub tokens: Vec<Tok>,
    /// One entry per source line.
    pub lines: Vec<LineInfo>,
}

impl Analysis {
    /// Whether `rule` is allowed (by a `lint:allow` directive) at `line`:
    /// the directive may sit on the line itself or on the contiguous run
    /// of comment-only lines immediately above it.
    pub fn allowed_at(&self, line: usize, rule: &str) -> bool {
        let pred = |info: &LineInfo| info.allows.iter().any(|a| a == rule);
        if line >= self.lines.len() {
            return false;
        }
        if pred(&self.lines[line]) {
            return true;
        }
        // Walk up through the contiguous comment-only block above.
        let mut l = line;
        while l > 0 && self.lines[l - 1].comment_only {
            l -= 1;
            if pred(&self.lines[l]) {
                return true;
            }
        }
        false
    }

    /// Whether `line` is inside test-gated code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.lines.get(line).is_some_and(|l| l.test)
    }
}

/// Runs the lexer over `src`.
pub fn analyze(src: &str) -> Analysis {
    let chars: Vec<char> = src.chars().collect();
    let line_count = src.split('\n').count();
    let mut lines = vec![LineInfo::default(); line_count.max(1)];
    let mut sanitized = String::with_capacity(src.len());
    let mut line = 0usize;
    let mut i = 0usize;
    let n = chars.len();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                sanitized.push('\n');
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                // Line comment: collect to EOL, blank it, harvest
                // directives.
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                harvest(&text, &mut lines[line]);
                blank(&mut sanitized, i - start);
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comment (nesting per Rust), blanked; directives
                // are applied per line it spans.
                let mut depth = 1usize;
                let mut text = String::new();
                i += 2;
                sanitized.push_str("  ");
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        sanitized.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        sanitized.push_str("  ");
                        i += 2;
                    } else if chars[i] == '\n' {
                        harvest(&text, &mut lines[line]);
                        text.clear();
                        sanitized.push('\n');
                        line += 1;
                        i += 1;
                    } else {
                        text.push(chars[i]);
                        sanitized.push(' ');
                        i += 1;
                    }
                }
                harvest(&text, &mut lines[line]);
            }
            '"' => {
                i = lex_string(&chars, i, &mut sanitized, &mut line);
            }
            'r' | 'b' if is_raw_or_byte_literal(&chars, i) => {
                i = lex_raw_or_byte(&chars, i, &mut sanitized, &mut line);
            }
            '\'' => {
                i = lex_quote(&chars, i, &mut sanitized);
            }
            _ => {
                sanitized.push(c);
                i += 1;
            }
        }
    }

    // Comment-only lines: sanitized content is blank but the original
    // line was not.
    for (idx, (sline, oline)) in sanitized.split('\n').zip(src.split('\n')).enumerate() {
        if idx < lines.len() {
            lines[idx].comment_only = sline.trim().is_empty() && !oline.trim().is_empty();
        }
    }

    let tokens = tokenize(&sanitized);
    mark_test_regions(&tokens, &mut lines);
    Analysis {
        sanitized,
        tokens,
        lines,
    }
}

fn blank(out: &mut String, count: usize) {
    for _ in 0..count {
        out.push(' ');
    }
}

/// Pulls `lint:allow(a, b)` directives out of one comment's text into
/// `info`.
fn harvest(text: &str, info: &mut LineInfo) {
    let mut rest = text;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else { break };
        for rule in rest[..end].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                info.allows.push(rule.to_string());
            }
        }
        rest = &rest[end + 1..];
    }
}

/// Is `chars[i]` the start of a raw string (`r"`, `r#"`), byte string
/// (`b"`), raw byte string (`br"`), or byte char (`b'x'`)? Requires a
/// non-identifier character before `i` so identifiers ending in `r`/`b`
/// don't trigger.
fn is_raw_or_byte_literal(chars: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if j < chars.len() && chars[j] == 'r' {
        j += 1;
        while j < chars.len() && chars[j] == '#' {
            j += 1;
        }
    }
    if j == i || (j == i + 1 && chars[i] == 'b' && j < chars.len() && chars[j] == '\'') {
        // b'…' byte char.
        return chars[i] == 'b' && chars.get(i + 1) == Some(&'\'');
    }
    chars.get(j) == Some(&'"')
}

fn lex_raw_or_byte(chars: &[char], mut i: usize, out: &mut String, line: &mut usize) -> usize {
    let n = chars.len();
    if chars[i] == 'b' && chars.get(i + 1) == Some(&'\'') {
        out.push_str("b ");
        i += 1;
        return lex_quote(chars, i, out);
    }
    // Prefix: optional b, r, then hashes.
    if chars[i] == 'b' {
        out.push('b');
        i += 1;
    }
    let mut hashes = 0usize;
    if chars.get(i) == Some(&'r') {
        out.push('r');
        i += 1;
        while chars.get(i) == Some(&'#') {
            out.push('#');
            i += 1;
            hashes += 1;
        }
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    out.push('"');
    i += 1;
    // Body until `"` followed by `hashes` hashes.
    while i < n {
        if chars[i] == '"' {
            let mut k = 0usize;
            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                out.push('"');
                for _ in 0..hashes {
                    out.push('#');
                }
                return i + 1 + hashes;
            }
        }
        if chars[i] == '\n' {
            out.push('\n');
            *line += 1;
        } else {
            out.push(' ');
        }
        i += 1;
    }
    i
}

fn lex_string(chars: &[char], mut i: usize, out: &mut String, line: &mut usize) -> usize {
    let n = chars.len();
    out.push('"');
    i += 1;
    while i < n {
        match chars[i] {
            '\\' if i + 1 < n => {
                // Preserve newlines in `\`-continuations so line numbers
                // downstream of multi-line strings stay accurate.
                out.push(' ');
                if chars[i + 1] == '\n' {
                    out.push('\n');
                    *line += 1;
                } else {
                    out.push(' ');
                }
                i += 2;
            }
            '"' => {
                out.push('"');
                return i + 1;
            }
            '\n' => {
                out.push('\n');
                *line += 1;
                i += 1;
            }
            _ => {
                out.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Lexes from a `'`: either a char literal (blanked) or a lifetime
/// (passed through).
fn lex_quote(chars: &[char], i: usize, out: &mut String) -> usize {
    let n = chars.len();
    // Escaped char literal: '\…'
    if chars.get(i + 1) == Some(&'\\') {
        let mut j = i + 2;
        while j < n && chars[j] != '\'' {
            j += 1;
        }
        out.push('\'');
        blank(out, j.saturating_sub(i + 1));
        out.push('\'');
        return (j + 1).min(n);
    }
    // Plain char literal: 'x'
    if chars.get(i + 2) == Some(&'\'') {
        out.push_str("'  ");
        return i + 3;
    }
    // Lifetime: pass the tick through; the identifier follows normally.
    out.push('\'');
    i + 1
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn tokenize(sanitized: &str) -> Vec<Tok> {
    let chars: Vec<char> = sanitized.chars().collect();
    let mut tokens = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;
    let n = chars.len();
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if is_ident_char(c) {
            let start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            tokens.push(Tok {
                text: chars[start..i].iter().collect(),
                line,
            });
        } else if c == ':' && chars.get(i + 1) == Some(&':') {
            tokens.push(Tok {
                text: "::".to_string(),
                line,
            });
            i += 2;
        } else {
            tokens.push(Tok {
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    tokens
}

/// Marks the brace block following each `#[test]` / `#[cfg(...test...)]`
/// attribute as test code. An item with no block before the next `;`
/// (e.g. `#[cfg(test)] mod tests;` or an attributed statement) marks
/// nothing beyond itself.
fn mark_test_regions(tokens: &[Tok], lines: &mut [LineInfo]) {
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].text != "#" || tokens[i + 1].text != "[" {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut attr: Vec<&str> = Vec::new();
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => attr.push(&tokens[j].text),
            }
            j += 1;
        }
        let is_test_attr = attr.first() == Some(&"test")
            || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Find the block the attribute applies to: the first `{` before
        // any statement-terminating `;` at attribute depth.
        let mut k = j + 1;
        let mut open = None;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(start) = open {
            let mut bdepth = 0usize;
            let mut end = start;
            while end < tokens.len() {
                match tokens[end].text.as_str() {
                    "{" => bdepth += 1,
                    "}" => {
                        bdepth -= 1;
                        if bdepth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            let first = tokens[i].line;
            let last = tokens[end.min(tokens.len() - 1)].line;
            for info in lines.iter_mut().take(last + 1).skip(first) {
                info.test = true;
            }
            i = end + 1;
        } else {
            i = k + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"let x = "unwrap()"; // .unwrap() here
let y = 1; /* panic!() */ let z = 'a';
"#;
        let a = analyze(src);
        assert!(!a.sanitized.contains("unwrap"));
        assert!(!a.sanitized.contains("panic"));
        assert!(a.sanitized.contains("let x"));
        assert!(a.sanitized.contains("let z"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"Instant::now()\"#; let t = br\"x.unwrap()\";\n";
        let a = analyze(src);
        assert!(!a.sanitized.contains("Instant"));
        assert!(!a.sanitized.contains("unwrap"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; }\n";
        let a = analyze(src);
        assert!(a.sanitized.contains("'a str"));
        assert!(a.sanitized.contains('{'));
        // The brace inside the char literal must be blanked: exactly one
        // `{` (the fn body) survives.
        assert_eq!(a.sanitized.matches('{').count(), 1);
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        let src = "let s = \"first \\\n    second\";\nx.unwrap();\n";
        let a = analyze(src);
        let unwrap = a.tokens.iter().find(|t| t.text == "unwrap");
        assert_eq!(unwrap.map(|t| t.line), Some(2));
    }

    #[test]
    fn directives_are_harvested() {
        let src = "// lint:allow(lock-order, blocking-under-lock)\nlet x = 1;\nlet y = 2;\n";
        let a = analyze(src);
        assert!(a.allowed_at(1, "lock-order"));
        assert!(a.allowed_at(1, "blocking-under-lock"));
        assert!(!a.allowed_at(1, "condvar-discipline"));
        assert!(!a.allowed_at(2, "lock-order"));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let a = analyze(src);
        assert!(!a.is_test_line(0));
        assert!(a.is_test_line(2));
        assert!(a.is_test_line(3));
        assert!(a.is_test_line(4));
        assert!(!a.is_test_line(5));
    }

    #[test]
    fn cfg_test_statement_without_block_marks_nothing_below() {
        let src = "fn f() {\n    #[cfg(test)]\n    inject(request);\n    real();\n}\n";
        let a = analyze(src);
        assert!(!a.is_test_line(3));
    }
}
