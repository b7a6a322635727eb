//! File classification, workspace walking and the scan driver.
//!
//! Scanning is multi-phase: every file is lexed, item-parsed and run
//! through the token rules first; then the workspace call graph is
//! built over all parsed files and the graph rules run; finally allow
//! markers (line- and fn-scoped) are matched against the combined
//! diagnostics and marker hygiene (`UF000`) is enforced.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allow::{count_policy_suppressions, parse_markers, Scope};
use crate::config::LintConfig;
use crate::graph;
use crate::lexer::lex;
use crate::parse::parse_file;
use crate::reach::run_graph_rules;
use crate::rules::run_rules;
use crate::{json_string, Code, Diagnostic};

/// Whether a workspace-relative path (always `/`-separated) is a binary
/// target (`src/bin/*` or `src/main.rs`): CLI entry points may panic on
/// startup errors, so UF031 skips them.
pub(crate) fn is_bin_path(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.ends_with("src/main.rs")
}

/// Outcome of scanning a file set.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Every finding, suppressed ones included, in path/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Well-formed allow markers seen.
    pub allow_count: usize,
    /// `#[expect]`/`#[allow]` attributes naming a clippy lint of the
    /// lint policy ([`crate::POLICY_LINTS`]).
    pub clippy_suppressions: usize,
    /// The configured allow budget, if any (`[policy] max_allows`).
    pub max_allows: Option<usize>,
    /// Cycles found in the lock-order graph (each a sorted lock-id list;
    /// empty is the gated invariant).
    pub lock_cycles: Vec<Vec<String>>,
    /// The rendered `callgraph.json` artifact.
    pub callgraph_json: String,
    /// The rendered `lock_order.json` artifact.
    pub lock_order_json: String,
}

impl ScanResult {
    /// Findings an allow marker did not cover.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// Count of unsuppressed findings (the `--deny` gate).
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Allow markers plus clippy policy suppressions: the count the
    /// `--check-allows` budget applies to.
    pub fn suppression_count(&self) -> usize {
        self.allow_count + self.clippy_suppressions
    }

    /// Whether the suppression count exceeds the configured budget.
    pub fn over_allow_budget(&self) -> bool {
        self.max_allows
            .is_some_and(|max| self.suppression_count() > max)
    }

    /// Render the machine-readable report.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 2,\n  \"files_scanned\": ");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\n  \"unsuppressed\": ");
        s.push_str(&self.unsuppressed_count().to_string());
        s.push_str(",\n  \"allows\": ");
        s.push_str(&self.allow_count.to_string());
        s.push_str(",\n  \"clippy_suppressions\": ");
        s.push_str(&self.clippy_suppressions.to_string());
        s.push_str(",\n  \"lock_cycles\": ");
        s.push_str(&self.lock_cycles.len().to_string());
        s.push_str(",\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"code\": \"");
            s.push_str(d.code.as_str());
            s.push_str("\", \"path\": ");
            json_string(&mut s, &d.path);
            s.push_str(", \"line\": ");
            s.push_str(&d.line.to_string());
            s.push_str(", \"col\": ");
            s.push_str(&d.col.to_string());
            s.push_str(", \"message\": ");
            json_string(&mut s, &d.message);
            s.push_str(", \"suppressed\": ");
            match &d.suppressed {
                Some(reason) => json_string(&mut s, reason),
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Scan a set of `(workspace-relative path, source text)` pairs as one
/// workspace: token rules per file, then the call-graph rules across
/// all of them.
pub fn scan_sources(sources: &[(String, String)], cfg: &LintConfig) -> ScanResult {
    let mut parsed = Vec::new();
    let mut per_file_markers = Vec::new();
    let mut per_file_bad = Vec::new();
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    let mut allow_count = 0usize;
    let mut clippy_suppressions = 0usize;

    for (rel, src) in sources {
        let lexed = lex(src);
        let (mut markers, bad) = parse_markers(&lexed.comments);
        allow_count += markers.len();
        clippy_suppressions += count_policy_suppressions(&lexed.tokens);
        let mut diags = run_rules(&lexed);
        for d in &mut diags {
            d.path = rel.clone();
        }
        let pf = parse_file(rel, &lexed);
        // Resolve `allow-fn` markers to the next function's line range.
        for m in &mut markers {
            if m.scope == Scope::NextFn {
                m.fn_range = pf
                    .items
                    .iter()
                    .filter(|it| it.line > m.line)
                    .min_by_key(|it| it.line)
                    .map(|it| (it.line, it.end_line));
            }
        }
        by_file.insert(rel.clone(), diags);
        parsed.push(pf);
        per_file_markers.push(markers);
        per_file_bad.push(bad);
    }

    // Whole-workspace graph rules.
    let g = graph::build(&parsed, cfg);
    let graph_diags = run_graph_rules(&parsed, &g);

    // Combine, then match suppressions per file.
    let mut result = ScanResult {
        files_scanned: sources.len(),
        allow_count,
        clippy_suppressions,
        max_allows: cfg.max_allows,
        lock_cycles: g.cycles.clone(),
        callgraph_json: graph::callgraph_json(&parsed, &g),
        lock_order_json: graph::lock_order_json(&g),
        ..ScanResult::default()
    };

    for d in graph_diags {
        by_file.entry(d.path.clone()).or_default().push(d);
    }

    for (idx, (rel, _)) in sources.iter().enumerate() {
        let markers = &mut per_file_markers[idx];
        let mut diags = by_file.remove(rel).unwrap_or_default();
        for d in &mut diags {
            for m in markers.iter_mut() {
                if m.covers(d.code, d.line) {
                    m.used = true;
                    d.suppressed = Some(m.reason.clone());
                    break;
                }
            }
        }
        // A marker that suppressed nothing is itself a finding: dead
        // allows hide drift. (Malformed markers were already collected.)
        let mut bad = std::mem::take(&mut per_file_bad[idx]);
        for m in markers.iter() {
            if m.scope == Scope::NextFn && m.fn_range.is_none() {
                bad.push(Diagnostic {
                    code: Code::UF000,
                    path: String::new(),
                    line: m.line,
                    col: 1,
                    message: "allow-fn marker has no following function".to_string(),
                    suppressed: None,
                });
            } else if !m.used {
                bad.push(Diagnostic {
                    code: Code::UF000,
                    path: String::new(),
                    line: m.line,
                    col: 1,
                    message: "allow marker suppresses nothing — remove it".to_string(),
                    suppressed: None,
                });
            }
        }
        for mut d in bad {
            d.path = rel.clone();
            diags.push(d);
        }
        result.diagnostics.extend(diags);
    }

    result
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.code).cmp(&(&b.path, b.line, b.col, b.code)));
    result
}

/// Scan one file's source text with the default configuration. `rel` is
/// the workspace-relative path used for classification and reporting.
pub fn scan_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    scan_sources(
        &[(rel.to_string(), src.to_string())],
        &LintConfig::default(),
    )
    .diagnostics
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Scan the whole workspace: every `.rs` file under `crates/*/src` and
/// the facade's `src/`, with configuration from `lint.toml` when
/// present. Vendored shims, tests, benches and examples are out of
/// scope — the pass guards first-party library and binary sources.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    let cfg = LintConfig::load(root).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    scan_workspace_with(root, &cfg)
}

/// [`scan_workspace`] with an explicit configuration.
pub fn scan_workspace_with(root: &Path, cfg: &LintConfig) -> io::Result<ScanResult> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        crates.sort();
        for c in crates {
            collect_rs(&c.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let src = fs::read_to_string(f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources, cfg))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
