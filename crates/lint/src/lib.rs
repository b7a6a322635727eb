//! `uflip_lint` — the workspace's in-repo static-analysis pass.
//!
//! The simulator's core guarantees are *global* properties: bit-identical
//! replay (no wall-clock reads or unseeded randomness inside sim paths),
//! panic-free library code (typed `FtlError`/`DeviceError`/`NandError`
//! returns), and overflow-safe nanosecond/LBA arithmetic. Tests catch
//! regressions after the fact; static checks pin the invariants down
//! structurally, before any test runs.
//!
//! Two tools share the work. Every rule clippy can enforce at the same
//! scope runs as clippy lints through one cargo alias, `cargo
//! lint-policy` (`.cargo/config.toml`, with the disallowed methods in
//! the root `clippy.toml`), over first-party library targets without
//! `cfg(test)`. This crate keeps only what clippy cannot express, in
//! two dependency-free layers (no syn, no crates.io), so the pass
//! builds in well under a second:
//!
//! 1. **Token rules** (UF003, UF005, UF006) — per-file patterns over the
//!    hand-rolled lexer's token stream.
//! 2. **Graph rules** (UF011–UF031) — a lightweight item parser builds
//!    a workspace symbol table and a conservative call graph; rules run
//!    over reachability from declared sim roots and the lock-order graph.
//!
//! # Rules
//!
//! | Rule | Checked by | Forbids | Why not clippy |
//! |------|------------|---------|----------------|
//! | wall clock | clippy `disallowed_methods` | `Instant::now` / `SystemTime::now` in library code | — (was UF001/UF010) |
//! | panics | clippy `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented` | panicking calls in library code | — (was UF002) |
//! | printing | clippy `print_stdout`, `print_stderr`, `dbg_macro` | stdout/stderr output from library code | — (was UF004) |
//! | discarded errors | clippy `let_underscore_must_use`, `unused_result_ok` | `let _ =` / `.ok()` dropping a `Result` | — (was UF030) |
//! | reasonless suppression | clippy `allow_attributes_without_reason`, `allow_attributes` | `#[allow]`, or a suppression without a reason | — (UF000's job for the rules above) |
//! | UF003 | token | lossy `as` narrowing of ns/LBA/sector-named expressions | `cast_possible_truncation` is name-blind: it flags 143 casts in the sim crates' library code |
//! | UF005 | token | `.to_string().contains(…)` on error values | no clippy equivalent |
//! | UF006 | token | `==` / `!=` against float literals | `float_cmp` exempts comparisons with zero |
//! | UF011 | graph | unseeded RNG (`thread_rng`, `OsRng`, …) reachable from a sim root | reachability from sim roots |
//! | UF012 | graph | std `HashMap`/`HashSet` iteration reachable from a sim root | reachability from sim roots |
//! | UF020 | graph | cycles in the lock-order graph | whole-workspace lock graph |
//! | UF021 | graph | a guard held across a call that may block | guard lifetimes across calls |
//! | UF031 | graph | a panic site reachable from a sim root, even where clippy's panic lints are suppressed | reachability from sim roots |
//!
//! Suppression: `// uflip-lint: allow(UF003, reason = "…")` on the same
//! line as the finding or the line before it; the item-scoped form
//! `// uflip-lint: allow-fn(UF021, reason = "…")` covers the whole next
//! function. A marker without a reason, or one that suppresses nothing,
//! is itself reported as `UF000`. The allow budget (`[policy]
//! max_allows` in `lint.toml`) counts these markers plus every
//! `#[expect]`/`#[allow]` attribute naming a [`POLICY_LINTS`] lint.
//!
//! Sim roots default to `execute_plan*` / `execute_parallel*` /
//! `replay_trace*` plus all impls of the `Ftl` trait, and can be
//! overridden by a `[roots]` block in `lint.toml` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod config;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod scan;

pub use allow::AllowMarker;
pub use config::LintConfig;
pub use scan::{scan_source, scan_sources, scan_workspace, ScanResult};

use std::fmt;

/// Diagnostic codes. `UF000` is the meta-code for malformed or unused
/// allow markers; `UF003`–`UF006` are the token rules, `UF011`–`UF031`
/// the graph rules. The retired codes (UF001, UF002, UF004, UF010,
/// UF030) are clippy lints now; see [`POLICY_LINTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[expect(
    missing_docs,
    reason = "each code is described by `summary()` and the crate-level rule table"
)]
pub enum Code {
    UF000,
    UF003,
    UF005,
    UF006,
    UF011,
    UF012,
    UF020,
    UF021,
    UF031,
}

/// The clippy lints `cargo lint-policy` denies (the alias in
/// `.cargo/config.toml` names exactly these). An `#[expect]` or
/// `#[allow]` naming one of them counts against the allow budget like
/// an allow marker does.
pub const POLICY_LINTS: [&str; 14] = [
    "disallowed_methods",
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "print_stdout",
    "print_stderr",
    "dbg_macro",
    "let_underscore_must_use",
    "unused_result_ok",
    "allow_attributes_without_reason",
    "allow_attributes",
];

impl Code {
    /// All rule codes, in order (excluding the meta-code `UF000`).
    pub const RULES: [Code; 8] = [
        Code::UF003,
        Code::UF005,
        Code::UF006,
        Code::UF011,
        Code::UF012,
        Code::UF020,
        Code::UF021,
        Code::UF031,
    ];

    /// The code's canonical `UFxxx` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UF000 => "UF000",
            Code::UF003 => "UF003",
            Code::UF005 => "UF005",
            Code::UF006 => "UF006",
            Code::UF011 => "UF011",
            Code::UF012 => "UF012",
            Code::UF020 => "UF020",
            Code::UF021 => "UF021",
            Code::UF031 => "UF031",
        }
    }

    /// Parse a `UFxxx` spelling (as written in an allow marker).
    pub fn parse(s: &str) -> Option<Code> {
        std::iter::once(Code::UF000)
            .chain(Code::RULES)
            .find(|c| c.as_str() == s)
    }

    /// One-line description used in human output.
    pub fn summary(self) -> &'static str {
        match self {
            Code::UF000 => "malformed or unused uflip-lint allow marker",
            Code::UF003 => "lossy `as` narrowing of a ns/LBA/sector value",
            Code::UF005 => "string-matching on a rendered error message",
            Code::UF006 => "exact float comparison",
            Code::UF011 => "unseeded randomness reachable from a sim root",
            Code::UF012 => "std HashMap/HashSet iteration reachable from a sim root",
            Code::UF020 => "cycle in the lock-order graph",
            Code::UF021 => "lock guard held across a call that may block",
            Code::UF031 => "panic site reachable from a sim root",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, positioned at a file:line:col.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule (or `UF000` meta) code.
    pub code: Code,
    /// Path of the offending file, relative to the workspace root.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// `Some(reason)` when an allow marker suppressed this finding.
    pub suppressed: Option<String>,
}

/// Append `s` to `out` as a JSON string literal, escaping as needed.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4u32, 0] {
                    let d = (b >> shift) & 0xF;
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}]",
            self.path, self.line, self.col, self.message, self.code
        )?;
        if let Some(reason) = &self.suppressed {
            write!(f, " (allowed: {reason})")?;
        }
        Ok(())
    }
}
