//! The `// uflip-lint: allow(…)` suppression grammar.
//!
//! ```text
//! // uflip-lint: allow(UF031, reason = "token-protocol invariant; a failure is a corrupted token")
//! // uflip-lint: allow(UF003, UF006, reason = "sentinel cast and compare")
//! // uflip-lint: allow-fn(UF021, reason = "single consumer; blocking by design")
//! ```
//!
//! A plain `allow` marker suppresses matching diagnostics on its own
//! line and on the immediately following line — covering both the
//! trailing style (`stmt; // uflip-lint: allow(…)`) and the
//! preceding-line style. The item-scoped `allow-fn` form covers the
//! whole function that follows the marker (the scanner resolves the
//! line range once items are parsed). Every marker must name at least
//! one `UFxxx` code and carry a non-empty `reason = "…"`; anything else
//! is reported as `UF000`, as is a marker that ends up suppressing
//! nothing (dead allows rot).
//!
//! Suppressions of the clippy policy lints are ordinary
//! `#[expect(clippy::…, reason = "…")]` attributes, whose hygiene
//! clippy enforces itself; [`count_policy_suppressions`] counts them
//! for the shared allow budget.

use crate::lexer::{Comment, Token, TokenKind};
use crate::{Code, Diagnostic, POLICY_LINTS};

/// What source range a marker suppresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The marker's own line and the next line.
    Line,
    /// The next function item after the marker (`allow-fn`). The line
    /// range is attached by the scanner once items are parsed.
    NextFn,
}

/// A parsed suppression marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// Codes this marker suppresses.
    pub codes: Vec<Code>,
    /// The mandatory justification.
    pub reason: String,
    /// Line the marker comment starts on.
    pub line: usize,
    /// Line vs item scope.
    pub scope: Scope,
    /// For `allow-fn`: the covered function's `[first, last]` lines,
    /// resolved by the scanner. `None` means no function follows the
    /// marker — a `UF000` hygiene finding.
    pub fn_range: Option<(usize, usize)>,
    /// Set during matching; an unused marker is a `UF000` finding.
    pub used: bool,
}

impl AllowMarker {
    /// Whether this marker covers `code` at `line`.
    pub fn covers(&self, code: Code, line: usize) -> bool {
        if !self.codes.contains(&code) {
            return false;
        }
        match self.scope {
            Scope::Line => line == self.line || line == self.line + 1,
            Scope::NextFn => self
                .fn_range
                .is_some_and(|(first, last)| line >= first && line <= last),
        }
    }
}

/// Extract markers from a file's line comments. Malformed markers become
/// `UF000` diagnostics (path left empty; the scanner fills it in).
pub fn parse_markers(comments: &[Comment]) -> (Vec<AllowMarker>, Vec<Diagnostic>) {
    let mut markers = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim();
        let Some(rest) = body.strip_prefix("uflip-lint:") else {
            continue;
        };
        match parse_body(rest.trim()) {
            Ok((codes, reason, scope)) => markers.push(AllowMarker {
                codes,
                reason,
                line: c.line,
                scope,
                fn_range: None,
                used: false,
            }),
            Err(why) => bad.push(Diagnostic {
                code: Code::UF000,
                path: String::new(),
                line: c.line,
                col: 1,
                message: format!("malformed uflip-lint marker: {why}"),
                suppressed: None,
            }),
        }
    }
    (markers, bad)
}

/// Parse `allow(UFxxx[, UFyyy…], reason = "…")` or the `allow-fn` form.
fn parse_body(s: &str) -> Result<(Vec<Code>, String, Scope), String> {
    let (rest, scope) = match s.strip_prefix("allow-fn") {
        Some(r) => (r, Scope::NextFn),
        None => match s.strip_prefix("allow") {
            Some(r) => (r, Scope::Line),
            None => {
                return Err(
                    "expected `allow(UFxxx, …, reason = \"…\")` or `allow-fn(…)`".to_string(),
                )
            }
        },
    };
    let Some(args) = rest
        .trim_start()
        .strip_prefix('(')
        .and_then(|t| t.trim_end().strip_suffix(')'))
    else {
        return Err("expected `(UFxxx, …, reason = \"…\")` after allow".to_string());
    };
    let mut codes = Vec::new();
    let mut reason = None;
    for part in split_args(args) {
        let part = part.trim();
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start();
            let Some(r) = r.strip_prefix('=') else {
                return Err("expected `reason = \"…\"`".to_string());
            };
            let r = r.trim();
            let Some(r) = r.strip_prefix('"').and_then(|r| r.strip_suffix('"')) else {
                return Err("reason must be a double-quoted string".to_string());
            };
            if r.trim().is_empty() {
                return Err("reason must not be empty".to_string());
            }
            reason = Some(r.to_string());
        } else if let Some(code) = Code::parse(part) {
            if code == Code::UF000 {
                return Err("UF000 (marker hygiene) cannot be allowed".to_string());
            }
            codes.push(code);
        } else if part.is_empty() {
            return Err("empty argument".to_string());
        } else {
            return Err(format!("unknown code or argument `{part}`"));
        }
    }
    if codes.is_empty() {
        return Err("no UFxxx code named".to_string());
    }
    let Some(reason) = reason else {
        return Err("missing mandatory `reason = \"…\"`".to_string());
    };
    Ok((codes, reason, scope))
}

/// Split on commas that are outside the quoted reason string.
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&s[start..]);
    out
}

/// Count the `#[expect(…)]` / `#[allow(…)]` attributes (outer or inner,
/// outside test code) that name at least one clippy policy lint, such as
/// `#[expect(clippy::unwrap_used, reason = "…")]`.
pub fn count_policy_suppressions(toks: &[Token]) -> usize {
    let punct = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    };
    let ident = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    };
    let mut count = 0;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !punct(i, "#") {
            continue;
        }
        let open = if punct(i + 1, "!") { i + 2 } else { i + 1 };
        if !punct(open, "[") || !(ident(open + 1, "expect") || ident(open + 1, "allow")) {
            continue;
        }
        let mut depth = 0usize;
        let mut j = open;
        let mut names_policy_lint = false;
        while let Some(tok) = toks.get(j) {
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "[" | "(" => depth += 1,
                    "]" | ")" => depth -= 1,
                    _ => {}
                }
            }
            if depth == 0 {
                break;
            }
            names_policy_lint |= ident(j, "clippy")
                && punct(j + 1, "::")
                && toks
                    .get(j + 2)
                    .is_some_and(|l| POLICY_LINTS.contains(&l.text.as_str()));
            j += 1;
        }
        count += usize::from(names_policy_lint);
    }
    count
}
