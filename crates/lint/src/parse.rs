//! A lightweight item parser on top of the lexer.
//!
//! Recovers just enough structure for whole-workspace analysis: function
//! items (free functions, inherent and trait-impl methods, trait default
//! methods, `macro_rules!` bodies as pseudo-functions), struct fields of
//! interesting types (locks, std hash maps), and per-function body
//! *events* — call sites, lock acquisitions, RNG touches, hash-map
//! iterations, panic sites — each tagged with enough scope information
//! for the graph layer to simulate guard lifetimes.
//!
//! The parser is conservative and never fails: anything it does not
//! recognize is skipped, which can only *lose* facts (an unresolved call
//! produces no edge), never invent them.

use crate::lexer::{Lexed, Token, TokenKind};

/// Method names whose no-argument call acquires a `Mutex`.
const MUTEX_ACQUIRE: &[&str] = &["lock"];

/// Method names that acquire an `RwLock` when the receiver is a known
/// lock (the no-argument requirement already filters out `File::read`
/// and friends, which take buffers).
const RWLOCK_ACQUIRE: &[&str] = &["read", "write"];

/// Std blocking primitives: calling one of these with a guard held is a
/// UF021 finding. `Condvar::wait*` is exempt by design — it *consumes*
/// the guard, which is the canonical pattern, not a hazard.
const STD_BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "sleep",
    "park",
    "park_timeout",
];

/// Iteration methods whose order is arbitrary on a std `HashMap`/`HashSet`.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Panicking macros (UF031, with `.unwrap()` / `.expect(…)` calls).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Unseeded / process-random entropy sources (UF011).
const RNG_SOURCES: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "RandomState",
    "getrandom",
];

/// What kind of lock a declaration names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
}

/// A struct field (or `static`) of lock type, e.g. `lane: Mutex<…>`.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Declaring type name (`"static"` for file-level statics).
    pub owner: String,
    /// Field (or static) name.
    pub field: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
}

/// A struct field of std `HashMap`/`HashSet` type.
#[derive(Debug, Clone)]
pub struct MapField {
    /// Declaring type name.
    pub owner: String,
    /// Field name.
    pub field: String,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `f(…)` — a bare function call.
    Bare(String),
    /// `a::b::c(…)` — a path call; segments in order.
    Path(Vec<String>),
    /// `recv.m(…)` — a method call by name.
    Method(String),
    /// `m!(…)` — a macro invocation.
    Macro(String),
}

impl CallTarget {
    /// The callee's final name segment.
    pub fn name(&self) -> &str {
        match self {
            CallTarget::Bare(n) | CallTarget::Method(n) | CallTarget::Macro(n) => n,
            CallTarget::Path(segs) => segs.last().map_or("", String::as_str),
        }
    }
}

/// One event observed while scanning a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// `{` — brace depth increased to `depth`.
    Open {
        /// Depth after opening.
        depth: usize,
    },
    /// `}` — brace depth decreased to `depth`.
    Close {
        /// Depth after closing.
        depth: usize,
    },
    /// `;` at `depth` — ends the temporaries of the current statement.
    Semi {
        /// Depth the semicolon appears at.
        depth: usize,
    },
    /// A call site.
    Call {
        /// How the callee is named.
        target: CallTarget,
        /// Receiver chain for method calls (`self.lane.lock()` →
        /// `["self", "lane"]`), or the first argument's ident chain for
        /// bare/path calls (for guard-returning helpers).
        recv: Vec<String>,
        /// Result is bound directly by a `let` in this statement.
        bound: bool,
        /// Call has an empty argument list (`f()`); distinguishes
        /// `handle.join()` from `vec.join(", ")`.
        no_args: bool,
        /// Brace depth of the call.
        depth: usize,
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
    },
    /// A direct lock acquisition (`.lock()`, `.read()`, `.write()` with
    /// no arguments).
    Acquire {
        /// Receiver chain (`["self", "lane"]`).
        recv: Vec<String>,
        /// Which method acquired.
        method: String,
        /// Guard is bound by a `let` (lives to end of scope) rather than
        /// a temporary (lives to end of statement).
        bound: bool,
        /// The `let` binding name when bound (for `drop(name)`).
        binding: Option<String>,
        /// Brace depth of the acquisition.
        depth: usize,
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
    },
    /// `drop(name)` — explicitly ends a bound guard.
    DropVar {
        /// The dropped binding.
        name: String,
    },
}

/// A fact found in a function body, positioned at line:col.
#[derive(Debug, Clone)]
pub struct Fact {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What was found (e.g. the offending token or method name).
    pub what: String,
}

/// Everything extracted from one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Call and scope events in source order.
    pub events: Vec<Event>,
    /// Unseeded RNG touches.
    pub rng: Vec<Fact>,
    /// Hash-map iteration sites: `what` is `recv.method`.
    pub map_iters: Vec<(Fact, Vec<String>, String)>,
    /// Panic sites: `.unwrap()`, `.expect(…)` and the panicking macros.
    pub panics: Vec<Fact>,
    /// Local variables of std map type declared in this body.
    pub local_maps: Vec<String>,
    /// Parameters of lock type: (name, kind).
    pub param_locks: Vec<(String, LockKind)>,
}

/// One function item (or `macro_rules!` pseudo-function).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Unique id: `file::Type::name@line`.
    pub qual: String,
    /// Display name (`Type::name` or `name`).
    pub display: String,
    /// Enclosing impl type, if a method.
    pub self_ty: Option<String>,
    /// Trait implemented by the enclosing impl, or declaring trait for
    /// a trait default method.
    pub trait_name: Option<String>,
    /// True for `macro_rules!` pseudo-functions.
    pub is_macro: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace (or the `;`).
    pub end_line: usize,
    /// Token index range of the signature `[fn, body_open)`.
    pub sig: (usize, usize),
    /// Token index range of the body braces, inclusive, if any.
    pub body: Option<(usize, usize)>,
    /// Return type names a lock guard.
    pub returns_guard: bool,
    /// Function lies in `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Body facts (filled by [`extract_facts`]).
    pub facts: FnFacts,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// All function items, in source order.
    pub items: Vec<FnItem>,
    /// Lock-typed struct fields and statics.
    pub lock_fields: Vec<LockField>,
    /// Std-map-typed struct fields.
    pub map_fields: Vec<MapField>,
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Skip a balanced `[…]` / `(…)` / `{…}` group starting at `open`.
/// Returns the index just past the matching closer.
fn skip_group(toks: &[Token], open: usize, opener: &str, closer: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(&toks[i], opener) {
            depth += 1;
        } else if is_punct(&toks[i], closer) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Find the body `{` of an item starting at `start`: the first `{` at
/// paren/bracket depth 0, or the terminating `;`. Returns
/// `(index, is_brace)`.
fn find_body_open(toks: &[Token], start: usize) -> (usize, bool) {
    let mut paren = 0isize;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => return (i, true),
                ";" if paren == 0 => return (i, false),
                _ => {}
            }
        }
        i += 1;
    }
    (toks.len(), false)
}

/// Index just past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    skip_group(toks, open, "{", "}")
}

/// Whether the token range `[a, b)` contains the ident `name`.
fn range_has_ident(toks: &[Token], a: usize, b: usize, name: &str) -> bool {
    toks[a..b.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == name)
}

/// Parse one file into items and fields. Body facts are filled in the
/// same pass via [`extract_facts`].
pub fn parse_file(rel: &str, lexed: &Lexed) -> ParsedFile {
    let mut out = ParsedFile {
        rel: rel.to_string(),
        ..ParsedFile::default()
    };
    parse_items(lexed, &mut out, 0, lexed.tokens.len(), None, None);
    for item in &mut out.items {
        if let Some((bo, bc)) = item.body {
            item.facts = extract_facts(&lexed.tokens, item.sig, bo, bc);
        }
    }
    out
}

/// Recursive item-level scan of `[from, to)`. `self_ty`/`trait_name`
/// carry the enclosing impl context.
fn parse_items(
    lexed: &Lexed,
    out: &mut ParsedFile,
    from: usize,
    to: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
) {
    let toks = &lexed.tokens;
    let mut i = from;
    while i < to {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            // Skip attribute groups so `#[derive(…)]` contents are not
            // mistaken for items; everything else at item level is
            // punctuation noise.
            if is_punct(t, "#") {
                let mut j = i + 1;
                if j < to && is_punct(&toks[j], "!") {
                    j += 1;
                }
                if j < to && is_punct(&toks[j], "[") {
                    i = skip_group(toks, j, "[", "]");
                    continue;
                }
            }
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                let i2 = parse_fn(lexed, out, i, self_ty, trait_name);
                i = i2;
            }
            "mod" => {
                // `mod name { … }` — recurse; `mod name;` — skip.
                let (open, brace) = find_body_open(toks, i + 1);
                if brace && open < to {
                    let end = match_brace(toks, open);
                    parse_items(lexed, out, open + 1, end.saturating_sub(1), None, None);
                    i = end;
                } else {
                    i = open + 1;
                }
            }
            "impl" => {
                let (open, brace) = find_body_open(toks, i + 1);
                if !brace || open >= to {
                    i = open + 1;
                    continue;
                }
                let (ty, tr) = parse_impl_header(toks, i + 1, open);
                let end = match_brace(toks, open);
                parse_items(
                    lexed,
                    out,
                    open + 1,
                    end.saturating_sub(1),
                    ty.as_deref(),
                    tr.as_deref(),
                );
                i = end;
            }
            "trait" => {
                let name = ident_at(toks, i + 1).unwrap_or("").to_string();
                let (open, brace) = find_body_open(toks, i + 2);
                if !brace || open >= to {
                    i = open + 1;
                    continue;
                }
                let end = match_brace(toks, open);
                parse_items(
                    lexed,
                    out,
                    open + 1,
                    end.saturating_sub(1),
                    None,
                    Some(&name),
                );
                i = end;
            }
            "struct" => {
                let name = ident_at(toks, i + 1).unwrap_or("").to_string();
                let (open, brace) = find_body_open(toks, i + 2);
                if brace && open < to {
                    let end = match_brace(toks, open);
                    parse_struct_fields(toks, &name, open + 1, end.saturating_sub(1), out);
                    i = end;
                } else {
                    i = open + 1;
                }
            }
            "static" | "const" => {
                // `static NAME: Mutex<…> = …;` — a file-level lock.
                if let Some(name) = ident_at(toks, i + 1) {
                    if toks.get(i + 2).is_some_and(|p| is_punct(p, ":")) {
                        let (stop, _) = find_body_open(toks, i + 3);
                        let stop = stop.min(to);
                        if let Some(kind) = lock_kind_in(toks, i + 3, stop) {
                            out.lock_fields.push(LockField {
                                owner: "static".to_string(),
                                field: name.to_string(),
                                kind,
                            });
                        }
                        i = stop + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "macro_rules" => {
                // `macro_rules! name { … }` — pseudo-function: its body
                // tokens are analyzed like a function body, and `name!`
                // invocations become call-graph edges to it.
                let name = if toks.get(i + 1).is_some_and(|p| is_punct(p, "!")) {
                    ident_at(toks, i + 2).unwrap_or("").to_string()
                } else {
                    String::new()
                };
                let (open, brace) = find_body_open(toks, i + 3);
                if !brace || open >= to || name.is_empty() {
                    i = open + 1;
                    continue;
                }
                let end = match_brace(toks, open);
                let end_line = toks.get(end.saturating_sub(1)).map_or(t.line, |tt| tt.line);
                out.items.push(FnItem {
                    qual: format!("{}::{}!@{}", out.rel, name, t.line),
                    display: format!("{name}!"),
                    name,
                    self_ty: None,
                    trait_name: None,
                    is_macro: true,
                    line: t.line,
                    end_line,
                    sig: (i, open),
                    body: Some((open, end.saturating_sub(1))),
                    returns_guard: false,
                    in_test: t.in_test,
                    facts: FnFacts::default(),
                });
                i = end;
            }
            _ => i += 1,
        }
    }
}

/// Parse `impl … {`: header tokens are `[start, open)`. Returns
/// `(type_name, trait_name)`.
fn parse_impl_header(
    toks: &[Token],
    start: usize,
    open: usize,
) -> (Option<String>, Option<String>) {
    // Find `for` at angle-depth 0.
    let mut angle = 0isize;
    let mut for_at = None;
    for (k, t) in toks.iter().enumerate().take(open).skip(start) {
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                _ => {}
            },
            TokenKind::Ident if t.text == "for" && angle == 0 => {
                for_at = Some(k);
                break;
            }
            _ => {}
        }
    }
    let type_part = |a: usize, b: usize| -> Option<String> {
        let mut angle = 0isize;
        let mut last = None;
        for t in &toks[a..b.min(toks.len())] {
            match t.kind {
                TokenKind::Punct => match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    _ => {}
                },
                TokenKind::Ident
                    if angle == 0 && !matches!(t.text.as_str(), "dyn" | "mut" | "where") =>
                {
                    last = Some(t.text.clone());
                }
                _ => {}
            }
        }
        last
    };
    match for_at {
        Some(f) => (type_part(f + 1, open), type_part(start, f)),
        None => (type_part(start, open), None),
    }
}

/// Collect lock/map-typed fields of a struct body `[from, to)`.
fn parse_struct_fields(toks: &[Token], owner: &str, from: usize, to: usize, out: &mut ParsedFile) {
    let mut i = from;
    while i < to {
        // field pattern: IDENT `:` type… up to `,` at depth 0.
        if toks[i].kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|p| is_punct(p, ":")) {
            let field = toks[i].text.clone();
            let mut j = i + 2;
            let mut depth = 0isize;
            while j < to {
                let t = &toks[j];
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" => depth -= 1,
                        // Nested generics close with a single `>>` token.
                        "<<" => depth += 2,
                        ">>" => depth -= 2,
                        "," if depth <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(kind) = lock_kind_in(toks, i + 2, j) {
                out.lock_fields.push(LockField {
                    owner: owner.to_string(),
                    field: field.clone(),
                    kind,
                });
            }
            if range_has_ident(toks, i + 2, j, "HashMap")
                || range_has_ident(toks, i + 2, j, "HashSet")
            {
                out.map_fields.push(MapField {
                    owner: owner.to_string(),
                    field,
                });
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

fn lock_kind_in(toks: &[Token], a: usize, b: usize) -> Option<LockKind> {
    if range_has_ident(toks, a, b, "Mutex") {
        Some(LockKind::Mutex)
    } else if range_has_ident(toks, a, b, "RwLock") {
        Some(LockKind::RwLock)
    } else {
        None
    }
}

/// Parse one `fn` item at token `i` (the `fn` ident). Returns the index
/// to continue scanning from.
fn parse_fn(
    lexed: &Lexed,
    out: &mut ParsedFile,
    i: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
) -> usize {
    let toks = &lexed.tokens;
    let Some(name) = ident_at(toks, i + 1) else {
        return i + 1;
    };
    let name = name.to_string();
    let (open, brace) = find_body_open(toks, i + 2);
    let mut returns_guard = false;
    // Return type: tokens after the last `->` in the signature.
    let mut k = i + 2;
    while k < open {
        if is_punct(&toks[k], "->") {
            returns_guard = toks[k + 1..open.min(toks.len())]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text.ends_with("Guard"));
            break;
        }
        k += 1;
    }
    let (body, end, end_line) = if brace {
        let end = match_brace(toks, open);
        let end_line = toks
            .get(end.saturating_sub(1))
            .map_or(toks[i].line, |t| t.line);
        (Some((open, end.saturating_sub(1))), end, end_line)
    } else {
        (
            None,
            open + 1,
            toks.get(open).map_or(toks[i].line, |t| t.line),
        )
    };
    let display = match self_ty {
        Some(ty) => format!("{ty}::{name}"),
        None => match trait_name {
            Some(tr) => format!("{tr}::{name}"),
            None => name.clone(),
        },
    };
    out.items.push(FnItem {
        qual: format!("{}::{}@{}", out.rel, display, toks[i].line),
        display,
        name,
        self_ty: self_ty.map(str::to_string),
        trait_name: trait_name.map(str::to_string),
        is_macro: false,
        line: toks[i].line,
        end_line,
        sig: (i, open),
        body,
        returns_guard,
        in_test: toks[i].in_test,
        facts: FnFacts::default(),
    });
    end
}

/// Walk a receiver chain backwards from the `.` before a method name:
/// `self.lane.done_rx` → `["self", "lane", "done_rx"]`. Returns an empty
/// chain when the receiver is not a simple ident path (a call result, an
/// index expression, …).
fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut i = dot; // index of the `.` token
    loop {
        if i == 0 {
            break;
        }
        let prev = &toks[i - 1];
        if prev.kind == TokenKind::Ident {
            chain.push(prev.text.clone());
            if i >= 2 && is_punct(&toks[i - 2], ".") {
                i -= 2;
                continue;
            }
        }
        break;
    }
    chain.reverse();
    chain
}

/// The ident chain of a call's first argument, skipping `&`/`mut`:
/// `f(&self.utilization)` → `["self", "utilization"]`.
fn first_arg_chain(toks: &[Token], open_paren: usize) -> Vec<String> {
    let mut i = open_paren + 1;
    while toks
        .get(i)
        .is_some_and(|t| is_punct(t, "&") || is_ident(t, "mut"))
    {
        i += 1;
    }
    let mut chain = Vec::new();
    while let Some(t) = toks.get(i) {
        if t.kind == TokenKind::Ident {
            chain.push(t.text.clone());
            if toks.get(i + 1).is_some_and(|p| is_punct(p, ".")) {
                i += 2;
                continue;
            }
        }
        break;
    }
    chain
}

/// Extract body facts and events from the token range `(body_open,
/// body_close)` (exclusive of the braces themselves).
fn extract_facts(
    toks: &[Token],
    sig: (usize, usize),
    body_open: usize,
    body_close: usize,
) -> FnFacts {
    let mut f = FnFacts::default();

    // Parameters of lock type, from the signature's `(…)` group.
    let mut p = sig.0;
    while p < sig.1 && !is_punct(&toks[p], "(") {
        p += 1;
    }
    if p < sig.1 {
        let pend = skip_group(toks, p, "(", ")").saturating_sub(1);
        let mut i = p + 1;
        while i < pend {
            if toks[i].kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|t| is_punct(t, ":"))
            {
                let name = toks[i].text.clone();
                let mut j = i + 2;
                let mut depth = 0isize;
                while j < pend {
                    let t = &toks[j];
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "<" | "(" | "[" => depth += 1,
                            ">" | ")" | "]" => depth -= 1,
                            "<<" => depth += 2,
                            ">>" => depth -= 2,
                            "," if depth <= 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if let Some(kind) = lock_kind_in(toks, i + 2, j) {
                    f.param_locks.push((name.clone(), kind));
                }
                if range_has_ident(toks, i + 2, j, "HashMap")
                    || range_has_ident(toks, i + 2, j, "HashSet")
                {
                    f.local_maps.push(name);
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
    }

    let mut depth = 0usize;
    let mut stmt_start = body_open + 1; // first token of the current statement
    let mut i = body_open + 1;
    while i < body_close {
        let t = &toks[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "{" => {
                    depth += 1;
                    f.events.push(Event::Open { depth });
                    stmt_start = i + 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    f.events.push(Event::Close { depth });
                    stmt_start = i + 1;
                }
                ";" => {
                    f.events.push(Event::Semi { depth });
                    stmt_start = i + 1;
                }
                _ => {}
            },
            TokenKind::Ident => {
                let name = t.text.as_str();

                // Unseeded RNG.
                if RNG_SOURCES.contains(&name)
                    || (name == "random"
                        && i >= 2
                        && is_punct(&toks[i - 1], "::")
                        && ident_at(toks, i - 2) == Some("rand"))
                {
                    f.rng.push(Fact {
                        line: t.line,
                        col: t.col,
                        what: name.to_string(),
                    });
                }

                // Local map declarations: `let NAME` … `HashMap`/`HashSet`
                // in the same statement (covers `: HashMap<…>` and
                // `= HashMap::new()`).
                if (name == "HashMap" || name == "HashSet")
                    && ident_at(toks, stmt_start) == Some("let")
                {
                    let mut j = stmt_start + 1;
                    if ident_at(toks, j) == Some("mut") {
                        j += 1;
                    }
                    if let Some(var) = ident_at(toks, j) {
                        if var != "_" {
                            f.local_maps.push(var.to_string());
                        }
                    }
                }

                // `drop(name)`.
                if name == "drop"
                    && toks.get(i + 1).is_some_and(|p| is_punct(p, "("))
                    && toks.get(i + 3).is_some_and(|p| is_punct(p, ")"))
                {
                    if let Some(v) = ident_at(toks, i + 2) {
                        f.events.push(Event::DropVar {
                            name: v.to_string(),
                        });
                    }
                }

                // Calls: ident followed by `(` (or macro `!`).
                let next_is = |s: &str| toks.get(i + 1).is_some_and(|p| is_punct(p, s));
                if next_is("!")
                    && toks
                        .get(i + 2)
                        .is_some_and(|p| is_punct(p, "(") || is_punct(p, "[") || is_punct(p, "{"))
                    && !t.in_test
                {
                    if PANIC_MACROS.contains(&name) {
                        f.panics.push(Fact {
                            line: t.line,
                            col: t.col,
                            what: format!("{name}!"),
                        });
                    }
                    f.events.push(Event::Call {
                        target: CallTarget::Macro(t.text.clone()),
                        recv: Vec::new(),
                        bound: false,
                        no_args: false,
                        depth,
                        line: t.line,
                        col: t.col,
                    });
                } else if next_is("(") && !matches!(name, "fn" | "if" | "while" | "match" | "for") {
                    let is_method = i > 0 && is_punct(&toks[i - 1], ".");
                    let stmt_is_let = ident_at(toks, stmt_start) == Some("let");
                    if is_method {
                        let chain = receiver_chain(toks, i - 1);
                        if (name == "unwrap" || name == "expect") && !t.in_test {
                            f.panics.push(Fact {
                                line: t.line,
                                col: t.col,
                                what: format!(".{name}()"),
                            });
                        }
                        // Lock acquisition: `.lock()` always; `.read()` /
                        // `.write()` only with no arguments (RwLock-shaped).
                        let no_args = toks.get(i + 2).is_some_and(|p| is_punct(p, ")"));
                        if no_args
                            && (MUTEX_ACQUIRE.contains(&name) || RWLOCK_ACQUIRE.contains(&name))
                        {
                            // Bound iff the statement is a `let` whose `=` is
                            // immediately followed by this receiver chain.
                            let bound = stmt_is_let && chain_starts_stmt(toks, stmt_start, &chain);
                            f.events.push(Event::Acquire {
                                recv: chain.clone(),
                                method: name.to_string(),
                                bound,
                                binding: bound
                                    .then(|| let_binding_name(toks, stmt_start))
                                    .flatten(),
                                depth,
                                line: t.line,
                                col: t.col,
                            });
                        }
                        // Map iteration candidates.
                        if MAP_ITER_METHODS.contains(&name) && !chain.is_empty() {
                            f.map_iters.push((
                                Fact {
                                    line: t.line,
                                    col: t.col,
                                    what: format!("{}.{}", chain.join("."), name),
                                },
                                chain.clone(),
                                name.to_string(),
                            ));
                        }
                        f.events.push(Event::Call {
                            target: CallTarget::Method(t.text.clone()),
                            recv: chain,
                            bound: stmt_is_let,
                            no_args,
                            depth,
                            line: t.line,
                            col: t.col,
                        });
                    } else {
                        // Bare or path call: collect leading `a::b::` segments.
                        let mut segs = vec![t.text.clone()];
                        let mut k = i;
                        while k >= 2 && is_punct(&toks[k - 1], "::") {
                            if let Some(s) = ident_at(toks, k - 2) {
                                segs.push(s.to_string());
                                k -= 2;
                            } else {
                                break;
                            }
                        }
                        segs.reverse();
                        let target = if segs.len() > 1 {
                            CallTarget::Path(segs)
                        } else {
                            CallTarget::Bare(t.text.clone())
                        };
                        f.events.push(Event::Call {
                            target,
                            recv: first_arg_chain(toks, i + 1),
                            bound: stmt_is_let,
                            no_args: toks.get(i + 2).is_some_and(|p| is_punct(p, ")")),
                            depth,
                            line: t.line,
                            col: t.col,
                        });
                    }
                }

                // `for pat in &self.map {` — iteration via the IntoIterator
                // sugar; record the chain for map resolution.
                if name == "in" {
                    let mut j = i + 1;
                    while toks
                        .get(j)
                        .is_some_and(|x| is_punct(x, "&") || is_ident(x, "mut"))
                    {
                        j += 1;
                    }
                    let mut chain = Vec::new();
                    let mut k = j;
                    while let Some(x) = toks.get(k) {
                        if x.kind == TokenKind::Ident {
                            chain.push(x.text.clone());
                            if toks.get(k + 1).is_some_and(|p| is_punct(p, ".")) {
                                k += 2;
                                continue;
                            }
                        }
                        break;
                    }
                    if !chain.is_empty() && toks.get(k).is_some_and(|p| is_punct(p, "{")) {
                        f.map_iters.push((
                            Fact {
                                line: t.line,
                                col: t.col,
                                what: format!("for … in {}", chain.join(".")),
                            },
                            chain,
                            "into_iter".to_string(),
                        ));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    f
}

/// The variable a `let` statement binds: first ident after `let` that is
/// not `mut` or a shallow pattern constructor (`Ok`, `Some`, `Err`), so
/// `let Ok(guard) = …` yields `guard`.
fn let_binding_name(toks: &[Token], stmt_start: usize) -> Option<String> {
    let mut i = stmt_start + 1;
    let mut budget = 8usize;
    while let Some(t) = toks.get(i) {
        if budget == 0 {
            return None;
        }
        budget -= 1;
        match t.kind {
            TokenKind::Ident if matches!(t.text.as_str(), "mut" | "Ok" | "Some" | "Err") => {}
            TokenKind::Ident => return Some(t.text.clone()),
            TokenKind::Punct if matches!(t.text.as_str(), "(" | ")") => {}
            _ => return None,
        }
        i += 1;
    }
    None
}

/// Whether the statement starting at `stmt_start` is `let [mut] NAME =`
/// (or `let PAT(NAME) =`) immediately followed by `chain`.
fn chain_starts_stmt(toks: &[Token], stmt_start: usize, chain: &[String]) -> bool {
    let Some(first) = chain.first() else {
        return false;
    };
    // Find the `=` of the let (skip a shallow pattern), then compare.
    let mut i = stmt_start + 1;
    let mut depth = 0isize;
    let mut budget = 16usize;
    while let Some(t) = toks.get(i) {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "=" if depth == 0 => {
                    return ident_at(toks, i + 1) == Some(first.as_str());
                }
                ";" | "{" => return false,
                _ => {}
            }
        }
        i += 1;
    }
    false
}

/// Whether `name` is a std blocking primitive for UF021 purposes.
pub fn is_std_blocking(name: &str) -> bool {
    STD_BLOCKING.contains(&name)
}
