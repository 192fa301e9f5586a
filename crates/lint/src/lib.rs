//! `mcc-lint`: the workspace's project-specific static-analysis pass.
//!
//! Rustc and clippy enforce language-level hygiene, including the
//! no-panic policy for library code; this crate checks only the
//! concurrency invariants no compiler lint knows about — the
//! lock-acquisition order across `engine`/`store`, no blocking work
//! under a lock, and predicate loops around every `Condvar` wait.
//!
//! The pass builds a [`facts::FactDb`] from the [`lexer`] token stream
//! (per-function calls, lock acquisitions, condvar waits, blocking I/O),
//! resolves a workspace [`callgraph`], and runs fixed-point
//! [`propagate`] analyses on top, so `lock-order`, `blocking-under-lock`
//! and `condvar-discipline` reason about what happens while a lock is
//! held anywhere downstream.
//!
//! The pass is intentionally lexical: it never typechecks and never
//! needs the network, so it runs in milliseconds on a bare toolchain
//! and CI can gate on it before anything else builds. Output is
//! byte-deterministic in every format (see [`report`]).

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod propagate;
pub mod report;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root (e.g. `crates/core/src/solver.rs`).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file identity and scoping, read by fact extraction.
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The crate directory name (e.g. `engine` for `crates/engine`).
    pub crate_name: String,
    /// Whether the file belongs to a binary target (`src/bin/**` or
    /// `src/main.rs`).
    pub is_binary: bool,
}

/// One loaded source file: its context plus its lexical analysis.
pub struct SourceFile {
    /// File identity and scoping.
    pub ctx: FileCtx,
    /// Token stream, sanitized text, and per-line directives.
    pub analysis: lexer::Analysis,
}

/// The fully-analyzed workspace handed to every rule.
pub struct Workspace {
    /// Every `crates/*/src` file, in sorted walk order.
    pub files: Vec<SourceFile>,
    /// Per-function facts and declared locks.
    pub facts: facts::FactDb,
    /// The resolved call graph over [`Workspace::facts`].
    pub graph: callgraph::CallGraph,
    /// Index from workspace-relative path to `files` position.
    by_path: BTreeMap<String, usize>,
}

impl Workspace {
    /// Whether `lint:allow(rule)` covers `line` (0-based) of `file`.
    pub fn allowed_at(&self, file: &str, line: usize, rule: &str) -> bool {
        self.by_path
            .get(file)
            .is_some_and(|&i| self.files[i].analysis.allowed_at(line, rule))
    }
}

/// Loads every `crates/*/src/**/*.rs` file under `crates_dir`.
pub fn load_workspace(crates_dir: &Path) -> Result<Workspace, String> {
    let mut files = Vec::new();
    let mut crates: Vec<PathBuf> = read_dir_sorted(crates_dir)?
        .into_iter()
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for krate in &crates {
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = file_name_of(krate);
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        paths.sort();
        for path in &paths {
            let text =
                fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            let analysis = lexer::analyze(&text);
            let ctx = file_ctx(path, crates_dir, &crate_name);
            files.push(SourceFile { ctx, analysis });
        }
    }
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for krate in &crates {
        let manifest = krate.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            deps.insert(file_name_of(krate), manifest_deps(&text));
        }
    }
    transitive_close(&mut deps);
    let facts = facts::extract(&files);
    let graph = callgraph::build(&facts, &deps);
    let by_path = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.ctx.rel_path.clone(), i))
        .collect();
    Ok(Workspace {
        files,
        facts,
        graph,
        by_path,
    })
}

/// Runs every rule over the workspace under `crates_dir` (the directory
/// holding the crate subdirectories, normally `<workspace>/crates`).
/// Diagnostics come back sorted by (file, line, rule). I/O errors
/// (unreadable dirs/files) are reported as `Err`.
pub fn run(crates_dir: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = load_workspace(crates_dir)?;
    let mut out = Vec::new();
    for rule in rules::RULES {
        (rule.check)(&ws, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup();
    Ok(out)
}

/// Parses the `[dependencies]` table of one crate manifest for
/// workspace-internal deps (`mcc` is the `core` crate directory;
/// `mcc-foo` is `foo`). Dev-dependencies are excluded on purpose: the
/// call graph only covers non-test code.
fn manifest_deps(text: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let mut in_deps = false;
    for line in text.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_deps = l == "[dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some(name) = l.split(['.', ' ', '=']).next() else {
            continue;
        };
        if name == "mcc" {
            deps.insert("core".to_string());
        } else if let Some(rest) = name.strip_prefix("mcc-") {
            deps.insert(rest.to_string());
        }
    }
    deps
}

/// Closes the dependency map under transitivity (a → b → c means a
/// sees c's items through re-exports and returned types).
fn transitive_close(deps: &mut BTreeMap<String, BTreeSet<String>>) {
    let names: Vec<String> = deps.keys().cloned().collect();
    loop {
        let mut changed = false;
        for name in &names {
            let direct: Vec<String> = deps
                .get(name)
                .map(|d| d.iter().cloned().collect())
                .unwrap_or_default();
            let mut add: BTreeSet<String> = BTreeSet::new();
            for d in &direct {
                if let Some(dd) = deps.get(d) {
                    add.extend(dd.iter().cloned());
                }
            }
            if let Some(set) = deps.get_mut(name) {
                let before = set.len();
                set.extend(add);
                changed |= set.len() != before;
            }
        }
        if !changed {
            break;
        }
    }
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn file_ctx(path: &Path, crates_dir: &Path, crate_name: &str) -> FileCtx {
    let rel = path.strip_prefix(crates_dir).unwrap_or(path);
    let rel_path = {
        let mut s = String::from("crates");
        for comp in rel.components() {
            s.push('/');
            s.push_str(&comp.as_os_str().to_string_lossy());
        }
        s
    };
    let is_binary = rel_path.contains("/src/bin/") || file_name_of(path) == "main.rs";
    FileCtx {
        rel_path,
        crate_name: crate_name.to_string(),
        is_binary,
    }
}

/// Resolves the workspace root: an explicit `--root`, else the nearest
/// ancestor of `cwd` holding a `Cargo.toml` with a `[workspace]` table,
/// else the compile-time location of this crate's workspace.
pub fn resolve_root(explicit: Option<&str>) -> PathBuf {
    if let Some(root) = explicit {
        return PathBuf::from(root);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            break;
        }
    }
    // Fallback: crates/lint/../..
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .components()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_as_file_line_rule() {
        let d = Diagnostic {
            file: "crates/core/src/solver.rs".into(),
            line: 42,
            rule: "lock-order",
            message: "boom".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/solver.rs:42: [lock-order] boom"
        );
    }

    #[test]
    fn resolve_root_finds_this_workspace() {
        let root = resolve_root(None);
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/lint").is_dir());
    }
}
