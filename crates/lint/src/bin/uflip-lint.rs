//! `uflip-lint` — scan the workspace and report invariant violations.
//!
//! ```text
//! uflip-lint [--deny] [--json PATH] [--graph PATH]… [--check-allows] [--quiet] [ROOT]
//! ```
//!
//! With no `ROOT`, the workspace root is found by walking up from the
//! current directory. `--deny` exits non-zero when any unsuppressed
//! diagnostic remains, the lock-order graph has a cycle, or the allow
//! budget (`[policy] max_allows` in `lint.toml`) is exceeded — the CI
//! gate; without it the run is report-only. `--json PATH` writes the
//! machine-readable report. `--graph PATH` (repeatable) writes a graph
//! artifact chosen by the file stem: `callgraph*.json` gets the call
//! graph, `lock_order*.json` the lock-order graph. `--check-allows`
//! only verifies the allow budget and prints the count: allow markers
//! plus `#[expect]`/`#[allow]` suppressions of the clippy policy lints.

use std::path::PathBuf;
use std::process::ExitCode;

use uflip_lint::{scan::find_workspace_root, scan_workspace, Code};

struct Options {
    deny: bool,
    json: Option<PathBuf>,
    graphs: Vec<PathBuf>,
    check_allows: bool,
    quiet: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny: false,
        json: None,
        graphs: Vec::new(),
        check_allows: false,
        quiet: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => opts.deny = true,
            "--quiet" => opts.quiet = true,
            "--check-allows" => opts.check_allows = true,
            "--json" => {
                let path = args.next().ok_or("--json needs a path")?;
                opts.json = Some(PathBuf::from(path));
            }
            "--graph" => {
                let path = args.next().ok_or("--graph needs a path")?;
                opts.graphs.push(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!(
                    "usage: uflip-lint [--deny] [--json PATH] [--graph PATH]… \
                     [--check-allows] [--quiet] [ROOT]"
                );
                println!();
                println!("rules:");
                for code in Code::RULES {
                    println!("  {code}  {}", code.summary());
                }
                std::process::exit(0);
            }
            _ if a.starts_with('-') => return Err(format!("unknown flag `{a}`")),
            _ => {
                if opts.root.replace(PathBuf::from(&a)).is_some() {
                    return Err("at most one ROOT argument".to_string());
                }
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("uflip-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "uflip-lint: no workspace root found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let result = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("uflip-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("uflip-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for path in &opts.graphs {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let body = if stem.starts_with("lock_order") {
            &result.lock_order_json
        } else if stem.starts_with("callgraph") {
            &result.callgraph_json
        } else {
            eprintln!(
                "uflip-lint: --graph {}: stem must start with `callgraph` or `lock_order`",
                path.display()
            );
            return ExitCode::from(2);
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("uflip-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if opts.check_allows {
        let count = format!(
            "{} suppressions ({} allow markers, {} clippy policy suppressions)",
            result.suppression_count(),
            result.allow_count,
            result.clippy_suppressions
        );
        match result.max_allows {
            Some(max) => {
                println!("uflip-lint: {count} (budget {max})");
                if result.over_allow_budget() {
                    eprintln!(
                        "uflip-lint: allow budget exceeded — raise [policy] max_allows in \
                         lint.toml deliberately or remove an allow"
                    );
                    return ExitCode::from(1);
                }
            }
            None => println!("uflip-lint: {count} (no budget configured)"),
        }
        return ExitCode::SUCCESS;
    }

    let unsuppressed = result.unsuppressed_count();
    let suppressed = result.diagnostics.len() - unsuppressed;
    if !opts.quiet {
        for d in result.unsuppressed() {
            println!("{d}");
        }
        for cycle in &result.lock_cycles {
            println!("lock-order cycle: {}", cycle.join(" -> "));
        }
        println!(
            "uflip-lint: {} files, {} unsuppressed diagnostic{}, {} allowed, {} lock cycle{}",
            result.files_scanned,
            unsuppressed,
            if unsuppressed == 1 { "" } else { "s" },
            suppressed,
            result.lock_cycles.len(),
            if result.lock_cycles.len() == 1 {
                ""
            } else {
                "s"
            },
        );
    }

    let over_budget = result.over_allow_budget();
    if opts.deny && over_budget {
        eprintln!(
            "uflip-lint: allow budget exceeded ({} > {})",
            result.suppression_count(),
            result.max_allows.unwrap_or(0)
        );
    }
    if opts.deny && (unsuppressed > 0 || !result.lock_cycles.is_empty() || over_budget) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
