//! Fact extraction: the per-function structural layer under the
//! interprocedural rules.
//!
//! One token walk per file (over the [`crate::lexer`] stream) produces a
//! [`FactDb`]: every function with its span, outgoing calls, lock
//! acquisitions (receiver field matched against declared `Mutex`/
//! `RwLock`/`Condvar` fields), condvar waits, and blocking I/O
//! (`fs::`/`File::`/fsync) — each site annotated with the set of locks
//! lexically held at that point.
//!
//! The lock-lifetime model is deliberately over-approximate: a guard
//! acquired at brace depth *d* is considered held until the block at
//! depth *d* closes or an explicit `drop(<binding>)` of its `let`
//! binding appears. Temporaries (`m.lock()….len()`) therefore count as
//! held to end of block; that errs toward reporting, never toward
//! silence, and every real acquisition in this workspace is either a
//! named guard or intentionally block-scoped.

use crate::lexer::Tok;
use crate::SourceFile;

/// Lock flavor of a declared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<T>` — acquired via `lock`/`try_lock`.
    Mutex,
    /// `RwLock<T>` — acquired via `read`/`write`/`try_read`/`try_write`.
    RwLock,
    /// `Condvar` — waited on via `wait`/`wait_timeout`/`wait_while`.
    Condvar,
}

/// A declared lock: a struct field (or rare local) of lock type,
/// identified workspace-wide as `crate::field`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Crate directory name (e.g. `engine`).
    pub crate_name: String,
    /// Field name (e.g. `slots`).
    pub field: String,
    /// Lock flavor.
    pub kind: LockKind,
    /// Workspace-relative file of the declaration.
    pub file: String,
    /// 0-based declaration line.
    pub line: usize,
}

impl LockDecl {
    /// Display identity: `crate::field` (e.g. `engine::slots`).
    pub fn id(&self) -> String {
        format!("{}::{}", self.crate_name, self.field)
    }
}

/// How a call site is written, which governs how it resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStyle {
    /// `recv.name(…)` — resolves against workspace methods by name.
    Method,
    /// `Qual::name(…)` — resolves via the impl-type index (uppercase
    /// qualifier) or crate-filtered free functions (lowercase).
    Path,
    /// `name(…)` — resolves against free functions, same crate first.
    Bare,
}

/// One outgoing call from a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Last path segment before `::name` for [`CallStyle::Path`]
    /// (with `Self` already substituted by the enclosing impl type).
    pub qualifier: Option<String>,
    /// For [`CallStyle::Method`] written `self.field.name(…)`: the
    /// field, so resolution can go through the field's declared type
    /// instead of matching every workspace method by name.
    pub recv_field: Option<String>,
    /// Syntactic shape.
    pub style: CallStyle,
    /// 0-based line.
    pub line: usize,
    /// Indices into the owning function's `lock_sites`: locks lexically
    /// held when the call is made.
    pub held: Vec<usize>,
}

/// One lock acquisition inside a function.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Index into [`FactDb::locks`].
    pub lock: usize,
    /// Acquisition method (`lock`, `read`, `write`, …).
    pub method: String,
    /// 0-based line.
    pub line: usize,
    /// Indices into the owning function's `lock_sites` held at this
    /// acquisition (the outer locks of a nesting pair).
    pub held: Vec<usize>,
    /// `lint:allow(lock-order)` on the line, or test code.
    pub exempt: bool,
}

/// One `Condvar` wait.
#[derive(Debug, Clone)]
pub struct WaitSite {
    /// Index into [`FactDb::locks`] (the condvar declaration).
    pub lock: usize,
    /// `wait`, `wait_timeout`, or `wait_while`.
    pub method: String,
    /// 0-based line.
    pub line: usize,
    /// Whether a `loop`/`while`/`for` block encloses the wait inside
    /// the same function (`wait_while` counts as looped by construction).
    pub in_loop: bool,
    /// `lint:allow(condvar-discipline)` on the line, or test code.
    pub exempt: bool,
}

/// One blocking I/O call inside a function.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Human-readable call (e.g. `` `fs::write` ``, `` `.sync_all()` ``).
    pub what: String,
    /// 0-based line.
    pub line: usize,
    /// `lint:allow(blocking-under-lock)` on the line, or test code.
    pub exempt: bool,
    /// Indices into the owning function's `lock_sites` held at the
    /// site.
    pub held: Vec<usize>,
}

/// Everything the analysis knows about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Function name as written.
    pub name: String,
    /// Enclosing `impl` type, if any (e.g. `SchemaArtifactCache`).
    pub impl_type: Option<String>,
    /// Whether the first parameter is `self`.
    pub has_self: bool,
    /// The implemented trait's last path segment, for trait-impl
    /// methods (so `dyn Trait` receivers resolve through the trait).
    pub trait_name: Option<String>,
    /// Crate directory name.
    pub crate_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Defined in a binary target.
    pub is_binary: bool,
    /// Defined in a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Outgoing calls.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions.
    pub lock_sites: Vec<LockSite>,
    /// Condvar waits.
    pub waits: Vec<WaitSite>,
    /// Blocking I/O (`fs::*`, `File::*`, `.sync_all()`, `.sync_data()`).
    pub blocking: Vec<BlockingSite>,
}

impl FnFact {
    /// Display name: `Type::name` for methods, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace fact database: every function and every declared lock.
#[derive(Debug, Default)]
pub struct FactDb {
    /// All functions, in (file, definition) order.
    pub functions: Vec<FnFact>,
    /// All declared locks, deduplicated by (crate, field).
    pub locks: Vec<LockDecl>,
    /// Declared field types per crate: `(crate, field) → Some(Type)`,
    /// or `None` when the same field name is declared with different
    /// types (ambiguous — resolution falls back to name matching).
    pub field_types: std::collections::BTreeMap<(String, String), Option<String>>,
}

/// Acquisition methods that produce a guard on a `Mutex`/`RwLock`.
const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Keywords never recorded as bare calls.
const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "while",
    "for",
    "loop",
    "match",
    "return",
    "let",
    "fn",
    "in",
    "as",
    "move",
    "ref",
    "mut",
    "pub",
    "use",
    "mod",
    "impl",
    "trait",
    "struct",
    "enum",
    "type",
    "const",
    "static",
    "where",
    "unsafe",
    "async",
    "await",
    "dyn",
    "break",
    "continue",
    "crate",
    "super",
    "self",
    "Self",
    "true",
    "false",
    "drop",
    "assert",
    "debug_assert",
    "assert_eq",
    "assert_ne",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
    "write",
    "writeln",
    "format",
    "println",
    "eprintln",
    "vec",
];

/// Extracts the fact database from every loaded source file.
pub fn extract(files: &[SourceFile]) -> FactDb {
    let mut locks = Vec::new();
    for f in files {
        scan_lock_decls(f, &mut locks);
    }
    // Deduplicate by (crate, field): first declaration wins; two structs
    // sharing a field name in one crate fold into one logical lock
    // (over-approximate, deterministic).
    let mut deduped: Vec<LockDecl> = Vec::new();
    for d in locks {
        if !deduped
            .iter()
            .any(|e| e.crate_name == d.crate_name && e.field == d.field)
        {
            deduped.push(d);
        }
    }
    let mut db = FactDb {
        functions: Vec::new(),
        locks: deduped,
        field_types: std::collections::BTreeMap::new(),
    };
    for f in files {
        scan_field_types(f, &mut db.field_types);
    }
    for f in files {
        scan_functions(f, &mut db);
    }
    db
}

/// Finds `field: [path::]Mutex<` / `RwLock<` / `Condvar` declarations.
/// Struct-literal initializers (`field: Mutex::new(`) do not match: the
/// type name there is followed by `::`, not `<` (or, for `Condvar`, by
/// `::` rather than a delimiter). `Arc<`/`Box<` wrappers are unwrapped.
fn scan_lock_decls(sf: &SourceFile, out: &mut Vec<LockDecl>) {
    let toks = &sf.analysis.tokens;
    for i in 0..toks.len() {
        if !is_ident(&toks[i]) || toks.get(i + 1).map(|t| t.text.as_str()) != Some(":") {
            continue;
        }
        if sf.analysis.is_test_line(toks[i].line) {
            continue;
        }
        let mut j = i + 2;
        // Unwrap `Arc<` / `Box<` and skip path prefixes (`sync::Mutex`).
        while let (Some(a), Some(b)) = (toks.get(j), toks.get(j + 1)) {
            let wrapper = (a.text == "Arc" || a.text == "Box") && b.text == "<";
            let path_prefix = is_ident(a) && b.text == "::";
            if !(wrapper || path_prefix) {
                break;
            }
            j += 2;
        }
        let Some(ty) = toks.get(j) else { continue };
        let next = toks.get(j + 1).map(|t| t.text.as_str());
        let kind = match ty.text.as_str() {
            "Mutex" if next == Some("<") => LockKind::Mutex,
            "RwLock" if next == Some("<") => LockKind::RwLock,
            "Condvar" if next != Some("::") => LockKind::Condvar,
            _ => continue,
        };
        out.push(LockDecl {
            crate_name: sf.ctx.crate_name.clone(),
            field: toks[i].text.clone(),
            kind,
            file: sf.ctx.rel_path.clone(),
            line: toks[i].line,
        });
    }
}

/// Records `name: Type` declarations (struct fields, fn params, typed
/// `let`s, statics) as `(crate, name) → Some(Type)` so method calls on
/// those names resolve through the declared type instead of every
/// workspace method by name (the difference between `store.load(…)`
/// hitting `ArtifactStore::load` and `self.hits.load(Ordering)`
/// hitting it too). Only deref wrappers (`Arc`/`Box`/`Rc`) are
/// unwrapped — `Option`/`Cell`/`OnceLock` keep the wrapper as the
/// type, because `.get()`/`.take()` on those belong to the wrapper. A
/// name declared with two different types in one crate collapses to
/// `None` (ambiguous → name-based fallback).
fn scan_field_types(
    sf: &SourceFile,
    out: &mut std::collections::BTreeMap<(String, String), Option<String>>,
) {
    let toks = &sf.analysis.tokens;
    for i in 0..toks.len() {
        if !is_ident(&toks[i]) || toks.get(i + 1).map(|t| t.text.as_str()) != Some(":") {
            continue;
        }
        if sf.analysis.is_test_line(toks[i].line) {
            continue;
        }
        let mut j = i + 2;
        // Skip reference/lifetime/mut/dyn sigils, unwrap deref wrappers,
        // and skip path prefixes (`sync::Mutex`).
        while let Some(a) = toks.get(j) {
            match a.text.as_str() {
                "&" | "mut" | "dyn" => {
                    j += 1;
                    continue;
                }
                "'" => {
                    // `'a` is two tokens; drop both.
                    j += if toks.get(j + 1).is_some_and(is_ident) {
                        2
                    } else {
                        1
                    };
                    continue;
                }
                _ => {}
            }
            let Some(b) = toks.get(j + 1) else { break };
            let deref_wrapper = matches!(a.text.as_str(), "Arc" | "Box" | "Rc");
            let wrapper = deref_wrapper && b.text == "<";
            let path_prefix = is_ident(a) && b.text == "::";
            if !(wrapper || path_prefix) {
                break;
            }
            j += 2;
        }
        let Some(ty) = toks.get(j).filter(|t| is_ident(t)) else {
            continue;
        };
        // Uppercase nominal types only; `Type::…` here is a struct-literal
        // initializer expression, not a declaration.
        if !starts_upper(&ty.text) || toks.get(j + 1).map(|t| t.text.as_str()) == Some("::") {
            continue;
        }
        let key = (sf.ctx.crate_name.clone(), toks[i].text.clone());
        match out.get(&key) {
            None => {
                out.insert(key, Some(ty.text.clone()));
            }
            Some(Some(existing)) if *existing != ty.text => {
                out.insert(key, None);
            }
            _ => {}
        }
    }
}

fn is_ident(t: &Tok) -> bool {
    t.text
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
}

/// A pending `fn` header awaiting its body `{`.
struct PendingFn {
    name: String,
    line: usize,
    has_self: bool,
}

/// One open brace block in the walk.
struct Block {
    /// Brace depth of the block interior.
    depth: usize,
    /// `Some(fn index)` if this block is a function body.
    func: Option<usize>,
    /// Whether this block is a `loop`/`while`/`for` body.
    is_loop: bool,
    /// Whether this block is an `impl` body.
    is_impl: bool,
}

/// An acquisition currently considered held.
struct Active {
    /// Owning function (index into `db.functions`).
    func: usize,
    /// Index into that function's `lock_sites`.
    site: usize,
    /// The guard's `let` binding name, if the statement head had one.
    binding: Option<String>,
    /// Brace depth at acquisition: released when this depth closes.
    depth: usize,
}

/// The per-file walker state.
struct Walker<'a> {
    sf: &'a SourceFile,
    depth: usize,
    blocks: Vec<Block>,
    fn_stack: Vec<usize>,
    impl_stack: Vec<(String, Option<String>)>,
    pending_fn: Option<PendingFn>,
    sig_depth: usize,
    pending_loop: bool,
    pending_impl: Option<(String, Option<String>)>,
    active: Vec<Active>,
    stmt_start: usize,
}

/// Walks one file's token stream, appending every function's facts.
fn scan_functions(sf: &SourceFile, db: &mut FactDb) {
    let toks = &sf.analysis.tokens;
    let mut w = Walker {
        sf,
        depth: 0,
        blocks: Vec::new(),
        fn_stack: Vec::new(),
        impl_stack: Vec::new(),
        pending_fn: None,
        sig_depth: 0,
        pending_loop: false,
        pending_impl: None,
        active: Vec::new(),
        stmt_start: 0,
    };
    let mut i = 0usize;
    while i < toks.len() {
        i = w.step(toks, i, db);
    }
}

impl<'a> Walker<'a> {
    /// Processes the token at `i`; returns the next index.
    fn step(&mut self, toks: &[Tok], i: usize, db: &mut FactDb) -> usize {
        let t = &toks[i];
        match t.text.as_str() {
            "fn" => {
                if let Some(name) = toks.get(i + 1).filter(|n| is_ident(n)) {
                    self.pending_fn = Some(PendingFn {
                        name: name.text.clone(),
                        line: t.line,
                        has_self: has_self_param(toks, i + 2),
                    });
                    self.sig_depth = 0;
                }
                return i + 1;
            }
            "impl" => {
                self.pending_impl = parse_impl_header(toks, i + 1);
                return i + 1;
            }
            "loop" | "while" | "for" if !self.fn_stack.is_empty() && self.pending_fn.is_none() => {
                self.pending_loop = true;
                return i + 1;
            }
            "(" | "[" if self.pending_fn.is_some() => self.sig_depth += 1,
            ")" | "]" if self.pending_fn.is_some() => {
                self.sig_depth = self.sig_depth.saturating_sub(1)
            }
            ";" => {
                if self.sig_depth == 0 {
                    // Trait method declaration without a body.
                    self.pending_fn = None;
                }
                self.stmt_start = i + 1;
            }
            "{" => {
                self.open_block(db);
                self.stmt_start = i + 1;
                return i + 1;
            }
            "}" => {
                self.close_block();
                self.stmt_start = i + 1;
                return i + 1;
            }
            _ => {}
        }
        if self.fn_stack.is_empty() || !is_ident(t) {
            return i + 1;
        }
        self.record_site(toks, i, db)
    }

    /// Opens a `{`: resolves whichever pending header it belongs to.
    fn open_block(&mut self, db: &mut FactDb) {
        self.depth += 1;
        let mut func = None;
        let mut is_loop = false;
        let mut is_impl = false;
        if let Some(p) = self.pending_fn.take() {
            let (impl_type, trait_name) = match self.impl_stack.last() {
                Some((ty, tn)) => (Some(ty.clone()), tn.clone()),
                None => (None, None),
            };
            db.functions.push(FnFact {
                name: p.name,
                impl_type,
                has_self: p.has_self,
                trait_name,
                crate_name: self.sf.ctx.crate_name.clone(),
                file: self.sf.ctx.rel_path.clone(),
                line: p.line,
                is_binary: self.sf.ctx.is_binary,
                is_test: self.sf.analysis.is_test_line(p.line),
                calls: Vec::new(),
                lock_sites: Vec::new(),
                waits: Vec::new(),
                blocking: Vec::new(),
            });
            let idx = db.functions.len() - 1;
            self.fn_stack.push(idx);
            func = Some(idx);
            self.pending_loop = false;
        } else if self.pending_loop {
            self.pending_loop = false;
            is_loop = true;
        } else if let Some(hdr) = self.pending_impl.take() {
            self.impl_stack.push(hdr);
            is_impl = true;
        }
        self.blocks.push(Block {
            depth: self.depth,
            func,
            is_loop,
            is_impl,
        });
    }

    /// Closes a `}`: releases block-scoped guards and pops structure.
    fn close_block(&mut self) {
        let d = self.depth;
        self.active.retain(|a| a.depth < d);
        if self.blocks.last().is_some_and(|b| b.depth == d) {
            if let Some(b) = self.blocks.pop() {
                if b.func.is_some() {
                    self.fn_stack.pop();
                }
                if b.is_impl {
                    self.impl_stack.pop();
                }
            }
        }
        self.depth = d.saturating_sub(1);
    }

    /// Locks currently held by the innermost function, as indices into
    /// its `lock_sites`.
    fn held(&self) -> Vec<usize> {
        let Some(&f) = self.fn_stack.last() else {
            return Vec::new();
        };
        self.active
            .iter()
            .filter(|a| a.func == f)
            .map(|a| a.site)
            .collect()
    }

    /// Is the innermost function's walk currently inside a loop block?
    fn in_loop(&self) -> bool {
        for b in self.blocks.iter().rev() {
            if b.func.is_some() {
                return false;
            }
            if b.is_loop {
                return true;
            }
        }
        false
    }

    /// The `let` binding name at the head of the current statement.
    fn stmt_binding(&self, toks: &[Tok]) -> Option<String> {
        let mut j = self.stmt_start;
        if toks.get(j).map(|t| t.text.as_str()) != Some("let") {
            return None;
        }
        j += 1;
        if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
            j += 1;
        }
        toks.get(j).filter(|t| is_ident(t)).map(|t| t.text.clone())
    }

    /// Classifies the identifier at `i` as a lock acquisition, wait,
    /// blocking I/O, guard drop, or call; returns the next index.
    fn record_site(&mut self, toks: &[Tok], i: usize, db: &mut FactDb) -> usize {
        let t = &toks[i];
        let a = &self.sf.analysis;
        let line = t.line;
        let test = a.is_test_line(line);
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
        let Some(&cur) = self.fn_stack.last() else {
            return i + 1;
        };
        let held = self.held();

        // Explicit guard release: `drop(binding)`.
        if t.text == "drop" && next == Some("(") {
            if let Some(b) = toks.get(i + 2).filter(|b| is_ident(b)) {
                if toks.get(i + 3).map(|n| n.text.as_str()) == Some(")") {
                    if let Some(pos) = self
                        .active
                        .iter()
                        .rposition(|al| al.func == cur && al.binding.as_deref() == Some(&b.text))
                    {
                        self.active.remove(pos);
                    }
                    return i + 4;
                }
            }
            return i + 1;
        }

        // Method position: `recv.name(`.
        if prev == "." && next == Some("(") {
            let recv = i
                .checked_sub(2)
                .and_then(|r| toks.get(r))
                .filter(|r| is_ident(r));
            let decl = recv.and_then(|r| {
                db.locks
                    .iter()
                    .position(|d| d.crate_name == self.sf.ctx.crate_name && d.field == r.text)
            });
            // Lock acquisition on a declared Mutex/RwLock field.
            if let Some(d) = decl {
                let is_guard_lock = !matches!(db.locks[d].kind, LockKind::Condvar)
                    && LOCK_METHODS.contains(&t.text.as_str());
                if is_guard_lock {
                    let f = &mut db.functions[cur];
                    f.lock_sites.push(LockSite {
                        lock: d,
                        method: t.text.clone(),
                        line,
                        held: held.clone(),
                        exempt: test || a.allowed_at(line, "lock-order"),
                    });
                    let site = f.lock_sites.len() - 1;
                    self.active.push(Active {
                        func: cur,
                        site,
                        binding: self.stmt_binding(toks),
                        depth: self.depth,
                    });
                    return i + 1;
                }
                // Condvar wait discipline.
                if matches!(db.locks[d].kind, LockKind::Condvar)
                    && matches!(t.text.as_str(), "wait" | "wait_timeout" | "wait_while")
                {
                    let in_loop = self.in_loop() || t.text == "wait_while";
                    db.functions[cur].waits.push(WaitSite {
                        lock: d,
                        method: t.text.clone(),
                        line,
                        in_loop,
                        exempt: test || a.allowed_at(line, "condvar-discipline"),
                    });
                    return i + 1;
                }
            }
            // fsync-style blocking methods.
            if matches!(t.text.as_str(), "sync_all" | "sync_data") {
                db.functions[cur].blocking.push(BlockingSite {
                    what: format!("`.{}()`", t.text),
                    line,
                    exempt: test || a.allowed_at(line, "blocking-under-lock"),
                    held,
                });
                return i + 1;
            }
        }

        // Blocking I/O: `fs::name(` / `File::name(` path calls. These are
        // recorded as blocking facts, never as call edges (resolving
        // `fs::read` by bare name would alias std into the workspace).
        if prev == "::" && next == Some("(") {
            let qual = i.checked_sub(2).and_then(|q| toks.get(q));
            if let Some(q) = qual {
                if q.text == "fs" || q.text == "File" {
                    db.functions[cur].blocking.push(BlockingSite {
                        what: format!("`{}::{}`", q.text, t.text),
                        line,
                        exempt: test || a.allowed_at(line, "blocking-under-lock"),
                        held,
                    });
                    return i + 1;
                }
            }
        }

        // Call sites.
        if next == Some("(") && !KEYWORDS.contains(&t.text.as_str()) {
            let (style, qualifier, recv_field) = if prev == "." {
                let recv = i
                    .checked_sub(2)
                    .and_then(|r| toks.get(r))
                    .filter(|r| is_ident(r));
                // Tuple-field receivers (`shard.0.load(…)`) are untyped
                // and overwhelmingly atomics here: no call edge.
                if recv.is_some_and(|r| r.text.starts_with(|c: char| c.is_ascii_digit())) {
                    return i + 1;
                }
                // Capture the receiver for typed resolution when it is a
                // plain declared name (`store.remove(…)`, `INSTALLED.get()`)
                // or a `self.field` access; deeper chains stay untyped.
                let rf = recv.and_then(|r| {
                    let before = i.checked_sub(3).map(|b| toks[b].text.as_str());
                    match before {
                        Some(".") => {
                            let root = i.checked_sub(4).map(|b| toks[b].text.as_str());
                            (root == Some("self")).then(|| r.text.clone())
                        }
                        Some("::") => None,
                        _ => Some(r.text.clone()),
                    }
                });
                (CallStyle::Method, None, rf)
            } else if prev == "::" {
                let qual = i
                    .checked_sub(2)
                    .and_then(|q| toks.get(q))
                    .filter(|q| is_ident(q))
                    .map(|q| q.text.clone());
                let Some(mut qual) = qual else {
                    return i + 1;
                };
                if qual == "Self" {
                    match self.impl_stack.last() {
                        Some((ty, _)) => qual = ty.clone(),
                        None => return i + 1,
                    }
                }
                (CallStyle::Path, Some(qual), None)
            } else {
                // Bare: skip constructors/variants (uppercase) and any
                // identifier that is actually a macro (`name!(…)` never
                // reaches here — `!` intervenes) or a definition head.
                if starts_upper(&t.text) || prev == "fn" {
                    return i + 1;
                }
                (CallStyle::Bare, None, None)
            };
            db.functions[cur].calls.push(CallSite {
                name: t.text.clone(),
                qualifier,
                recv_field,
                style,
                line,
                held,
            });
        }
        i + 1
    }
}

/// Does the parameter list opening at or after `start` begin with a
/// `self` receiver? (`&self`, `&'a self`, `&mut self`, `mut self`,
/// `self`.)
fn has_self_param(toks: &[Tok], start: usize) -> bool {
    // Find the `(` that opens the parameter list (skipping generics).
    let mut j = start;
    let mut angle = 0i32;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" if angle <= 0 => break,
            "{" | ";" => return false,
            _ => {}
        }
        j += 1;
    }
    // Scan a handful of tokens after `(` for `self` before any `,`.
    for k in 1..=4 {
        match toks.get(j + k).map(|t| t.text.as_str()) {
            Some("self") => return true,
            Some("&") | Some("'") | Some("mut") => continue,
            Some(_) if k == 2 => continue, // lifetime name after `'`
            _ => return false,
        }
    }
    false
}

/// Parses an `impl` header starting after the `impl` token: returns the
/// implemented-on type name and, for `impl Trait for Type`, the trait's
/// last path segment. Generics are skipped; each name is the last
/// identifier at angle-depth 0 (the type after `for`, if present).
fn parse_impl_header(toks: &[Tok], start: usize) -> Option<(String, Option<String>)> {
    let mut angle = 0i32;
    let mut trait_name: Option<String> = None;
    let mut last: Option<String> = None;
    let mut j = start;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle <= 0 => break,
            ";" => return None,
            "for" if angle == 0 => {
                trait_name = last.take();
            }
            "where" if angle == 0 => break,
            _ if angle == 0 && is_ident(t) && t.text != "dyn" => {
                last = Some(t.text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    last.map(|ty| (ty, trait_name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::FileCtx;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            ctx: FileCtx {
                rel_path: "crates/x/src/lib.rs".into(),
                crate_name: "x".into(),
                is_binary: false,
            },
            analysis: lexer::analyze(src),
        }
    }

    #[test]
    fn lock_decls_match_fields_not_initializers() {
        let src = "struct S { q: Mutex<u32>, r: RwLock<Vec<u8>>, c: Condvar }\n\
                   fn mk() -> S { S { q: Mutex::new(0), r: RwLock::new(Vec::new()), c: Condvar::new() } }\n";
        let db = extract(&[file(src)]);
        let ids: Vec<String> = db.locks.iter().map(|l| l.id()).collect();
        assert_eq!(ids, vec!["x::q", "x::r", "x::c"]);
    }

    #[test]
    fn guard_lifetime_ends_at_block_or_drop() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn both(&self) {\n\
                       let g = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
                       self.b.lock().ok();\n\
                       drop(g);\n\
                       helper();\n\
                   }\n\
                   }\n";
        let db = extract(&[file(src)]);
        let Some(f) = db.functions.iter().find(|f| f.name == "both") else {
            panic!("fn both not extracted");
        };
        assert_eq!(f.lock_sites.len(), 2);
        // b acquired while a held.
        assert_eq!(f.lock_sites[1].held, vec![0]);
        // helper() called after drop(g): only b's block-scoped guard
        // remains held.
        let call = f.calls.iter().find(|c| c.name == "helper");
        assert_eq!(call.map(|c| c.held.clone()), Some(vec![1]));
    }

    #[test]
    fn condvar_wait_loop_detection() {
        let src = "struct S { m: Mutex<bool>, cv: Condvar }\n\
                   impl S {\n\
                   fn bad(&self) { let g = self.m.lock().ok(); self.cv.wait(g); }\n\
                   fn good(&self) { let g = self.m.lock().ok(); while true { self.cv.wait(g); } }\n\
                   }\n";
        let db = extract(&[file(src)]);
        let bad = db.functions.iter().find(|f| f.name == "bad");
        let good = db.functions.iter().find(|f| f.name == "good");
        assert_eq!(bad.map(|f| f.waits[0].in_loop), Some(false));
        assert_eq!(good.map(|f| f.waits[0].in_loop), Some(true));
    }

    #[test]
    fn blocking_and_call_facts() {
        let src = "fn save(p: &str) { fs::write(p, b\"x\").ok(); }\n\
                   fn run() { save(\"f\"); obj.flush(); }\n";
        let db = extract(&[file(src)]);
        let save = db.functions.iter().find(|f| f.name == "save");
        assert_eq!(
            save.map(|f| f.blocking[0].what.clone()),
            Some("`fs::write`".to_string())
        );
        // fs::write is a blocking fact, not a call edge (only the
        // trailing `.ok()` registers as a call).
        let save_calls: Vec<String> = save
            .map(|f| f.calls.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default();
        assert_eq!(save_calls, vec!["ok"]);
        let run = db.functions.iter().find(|f| f.name == "run");
        let names: Vec<String> = run
            .map(|f| f.calls.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default();
        assert_eq!(names, vec!["save", "flush"]);
    }

    #[test]
    fn impl_headers_resolve_types_and_trait_impls() {
        let src = "impl fmt::Debug for Cache { fn fmt(&self) {} }\n\
                   impl<T> Wrapper<T> { fn get(&self) {} }\n";
        let db = extract(&[file(src)]);
        let fmt = db.functions.iter().find(|f| f.name == "fmt");
        assert_eq!(fmt.map(|f| f.impl_type.clone()), Some(Some("Cache".into())));
        assert_eq!(
            fmt.map(|f| f.trait_name.clone()),
            Some(Some("Debug".into()))
        );
        let get = db.functions.iter().find(|f| f.name == "get");
        assert_eq!(
            get.map(|f| f.impl_type.clone()),
            Some(Some("Wrapper".into()))
        );
        assert_eq!(get.map(|f| f.trait_name.clone()), Some(None));
    }
}
