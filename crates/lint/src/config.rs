//! Analyzer configuration, loaded from `lint.toml` at the workspace
//! root when present.
//!
//! The file is parsed by a deliberately tiny hand-rolled reader — the
//! lint crate is dependency-free by design — that understands exactly
//! the subset this tool writes: `[section]` headers, `key = ["a", "b"]`
//! string arrays (single- or multi-line) and `key = 123` integers.
//! Anything else is a hard error so a typo cannot silently disable a
//! gate.

/// Analyzer configuration: sim roots and allow policy.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Glob-ish patterns for root function names (`*` suffix only).
    pub root_functions: Vec<String>,
    /// Trait names whose impls (and default methods) are roots.
    pub root_traits: Vec<String>,
    /// Maximum number of allow markers in the workspace, enforced under
    /// `--deny` / `--check-allows`. `None` disables the budget.
    pub max_allows: Option<usize>,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            root_functions: vec![
                "execute_plan*".to_string(),
                "execute_parallel*".to_string(),
                "replay_trace*".to_string(),
            ],
            root_traits: vec!["Ftl".to_string()],
            max_allows: None,
        }
    }
}

impl LintConfig {
    /// Parse `lint.toml` text. Returns a message on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = Self {
            root_functions: Vec::new(),
            root_traits: Vec::new(),
            max_allows: None,
        };
        let mut section = String::new();
        let mut saw_roots = false;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                if section == "roots" {
                    saw_roots = true;
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{}: expected `key = value`", n + 1));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line array: keep consuming lines until the `]`.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont);
                    value.push(' ');
                    value.push_str(cont.trim());
                    if cont.trim_end().ends_with(']') {
                        break;
                    }
                }
            }
            match (section.as_str(), key) {
                ("roots", "functions") => cfg.root_functions = parse_string_array(&value, n + 1)?,
                ("roots", "traits") => cfg.root_traits = parse_string_array(&value, n + 1)?,
                ("policy", "max_allows") => {
                    cfg.max_allows = Some(value.parse::<usize>().map_err(|_| {
                        format!("lint.toml:{}: max_allows must be an integer", n + 1)
                    })?);
                }
                _ => {
                    return Err(format!(
                        "lint.toml:{}: unknown key `{}` in section `[{}]`",
                        n + 1,
                        key,
                        section
                    ));
                }
            }
        }
        // A lint.toml that never declares roots keeps the built-in
        // defaults, so `[policy]`-only files work.
        if !saw_roots {
            let defaults = Self::default();
            cfg.root_functions = defaults.root_functions;
            cfg.root_traits = defaults.root_traits;
        }
        Ok(cfg)
    }

    /// Load from `<root>/lint.toml`, falling back to defaults when the
    /// file does not exist.
    pub fn load(root: &std::path::Path) -> Result<Self, String> {
        let path = root.join("lint.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Whether `name` matches a root-function pattern (`*` = any suffix).
    pub fn is_root_fn(&self, name: &str) -> bool {
        self.root_functions
            .iter()
            .any(|p| match p.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == p,
            })
    }

    /// Whether `trait_name` is a root trait.
    pub fn is_root_trait(&self, trait_name: &str) -> bool {
        self.root_traits.iter().any(|t| t == trait_name)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{line}: expected a [\"…\"] array"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("lint.toml:{line}: array items must be quoted strings"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_empty() {
        let cfg = LintConfig::parse("").expect("parses");
        assert!(cfg.is_root_fn("execute_plan_observed"));
        assert!(cfg.is_root_trait("Ftl"));
        assert_eq!(cfg.max_allows, None);
    }

    #[test]
    fn parses_roots_and_policy() {
        let cfg = LintConfig::parse(
            r#"
# sim entry points
[roots]
functions = ["run_*", "main"]
traits = ["Ftl", "Device"]

[policy]
max_allows = 7
"#,
        )
        .expect("parses");
        assert!(cfg.is_root_fn("run_all"));
        assert!(cfg.is_root_fn("main"));
        assert!(!cfg.is_root_fn("mainline"));
        assert!(cfg.is_root_trait("Device"));
        assert_eq!(cfg.max_allows, Some(7));
    }

    #[test]
    fn multiline_array() {
        let cfg =
            LintConfig::parse("[roots]\nfunctions = [\n  \"a*\",\n  \"b\",\n]\ntraits = []\n")
                .expect("parses");
        assert!(cfg.is_root_fn("abc"));
        assert!(cfg.is_root_fn("b"));
        assert!(!cfg.is_root_trait("Ftl"));
    }

    /// `lint.toml` is external input: every truncation and every
    /// byte flip of the committed file (read as lossy UTF-8) must parse
    /// to `Ok` or `Err`, never panic.
    #[test]
    fn committed_lint_toml_survives_truncation_and_byte_flips() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml");
        let bytes = std::fs::read(path).expect("read the committed lint.toml");
        let parse = |b: &[u8]| LintConfig::parse(&String::from_utf8_lossy(b)).is_ok();
        assert!(parse(&bytes));
        let truncated_ok = (0..bytes.len()).filter(|&cut| parse(&bytes[..cut])).count();
        let mut flipped_ok = 0;
        for i in 0..bytes.len() {
            for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[i] ^= mask;
                flipped_ok += usize::from(parse(&b));
            }
        }
        // Both sweeps reach the error paths as well as the happy path.
        assert!(0 < truncated_ok && truncated_ok < bytes.len());
        assert!(0 < flipped_ok && flipped_ok < 9 * bytes.len());
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(LintConfig::parse("[roots]\nfunctons = []\n").is_err());
        assert!(LintConfig::parse("[policy]\nmax_allows = lots\n").is_err());
    }
}
