//! The three token-stream rules (UF003, UF005, UF006).
//!
//! Each rule is a pattern over the lexed token stream, skipping tokens
//! whose `in_test` flag is set. Rules fire on code the compiler
//! accepted, so they can assume well-formed token sequences.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::{Code, Diagnostic};

/// Narrow integer target types for UF003. `usize`/`u64` are not listed:
/// every supported sim target is 64-bit, so widening to them is lossless.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier segments that mark a value as time/address-typed for UF003:
/// nanosecond clocks, logical block addresses, sector counts, latencies.
const SENSITIVE_SEGMENTS: &[&str] = &[
    "ns",
    "nanos",
    "nsec",
    "lba",
    "lbas",
    "sector",
    "sectors",
    "lat",
    "latency",
    "latencies",
    "elapsed",
    "busy",
    "deadline",
];

/// String methods that, chained onto `.to_string()`, indicate matching on
/// a rendered error message (UF005).
const STRING_MATCHERS: &[&str] = &["contains", "starts_with", "ends_with", "find"];

/// Run every rule over one lexed file. Paths on the returned diagnostics
/// are empty; the scanner fills them in.
pub fn run_rules(lexed: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }

        // UF003 — lossy `as` narrowing of time/address values.
        if t.kind == TokenKind::Ident && t.text == "as" {
            if let Some(target) = toks.get(i + 1) {
                if target.kind == TokenKind::Ident && NARROW_INTS.contains(&target.text.as_str()) {
                    if let Some(name) = sensitive_cast_source(toks, i) {
                        out.push(diag(
                            Code::UF003,
                            t,
                            &format!(
                                "lossy cast of `{name}` to `{}` — use try_into (PR 5 overflow class)",
                                target.text
                            ),
                        ));
                    }
                }
            }
        }

        // UF005 — string-matching on rendered error messages.
        if t.kind == TokenKind::Ident
            && t.text == "to_string"
            && i > 0
            && punct(toks, i - 1, ".")
            && punct(toks, i + 1, "(")
            && punct(toks, i + 2, ")")
            && punct(toks, i + 3, ".")
            && toks.get(i + 4).is_some_and(|m| {
                m.kind == TokenKind::Ident && STRING_MATCHERS.contains(&m.text.as_str())
            })
            && punct(toks, i + 5, "(")
        {
            out.push(diag(
                Code::UF005,
                t,
                "matching on a rendered error message — match FailureKind / the error variant instead",
            ));
        }

        // UF006 — exact float comparison.
        if t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_side = |j: usize| toks.get(j).is_some_and(|n| n.kind == TokenKind::Float);
            if (i > 0 && float_side(i - 1)) || float_side(i + 1) {
                out.push(diag(
                    Code::UF006,
                    t,
                    &format!(
                        "float literal compared with `{}` — compare with a tolerance",
                        t.text
                    ),
                ));
            }
        }
    }
    out
}

fn diag(code: Code, at: &Token, message: &str) -> Diagnostic {
    Diagnostic {
        code,
        path: String::new(),
        line: at.line,
        col: at.col,
        message: message.to_string(),
        suppressed: None,
    }
}

fn punct(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Walk backward from an `as` token over the cast's source expression and
/// return the first time/address-named identifier found, if any.
///
/// The walk respects `as`-cast precedence: it continues through member
/// accesses, paths, calls and parenthesized groups, and stops at any
/// depth-0 operator, separator or keyword that would bind looser than
/// `as` — so in `a.x - b.submit_ns as u32` only `b.submit_ns` is
/// considered. Bounded lookback keeps it O(1) per cast.
fn sensitive_cast_source(toks: &[Token], as_idx: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut budget = 24usize;
    let mut i = as_idx;
    while i > 0 && budget > 0 {
        i -= 1;
        budget -= 1;
        let t = &toks[i];
        match t.kind {
            TokenKind::Ident => {
                if depth == 0
                    && matches!(
                        t.text.as_str(),
                        "return" | "if" | "else" | "match" | "let" | "in" | "while" | "for"
                    )
                {
                    return None;
                }
                if is_sensitive(&t.text) {
                    return Some(t.text.clone());
                }
            }
            TokenKind::Punct => match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        return None;
                    }
                    depth -= 1;
                }
                "." | "::" | "?" => {}
                _ if depth > 0 => {}
                _ => return None,
            },
            // Literals, strings, lifetimes: part of the expression, keep going.
            _ => {}
        }
    }
    None
}

/// `submit_ns`, `lba`, `total_busy_ns`, `sectors` … — any snake_case
/// segment naming a nanosecond, LBA, sector or latency quantity.
fn is_sensitive(name: &str) -> bool {
    name.split('_').any(|seg| SENSITIVE_SEGMENTS.contains(&seg))
}
