//! The rules retired from uflip-lint (UF001, UF002, UF004, UF010 and
//! UF030) are clippy lints now, run by the `cargo lint-policy` alias.
//!
//! This test runs that alias, with the arguments `.cargo/config.toml`
//! gives it, over the standalone fixture crate `tests/clippy_fixture/`.
//! The fixture sits below the repository's `clippy.toml`, so clippy picks
//! up the real disallowed-methods list. Each retired rule's golden
//! fixture must be rejected on exactly the lines uflip-lint's golden
//! tests expected, by the clippy lint the rule maps to. The fixture's
//! binary and its `#[cfg(test)]` code must stay out of scope.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;
use uflip_lint::POLICY_LINTS;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The arguments of the `lint-policy` alias in `.cargo/config.toml`.
fn alias_args() -> Vec<String> {
    let path = workspace_root().join(".cargo/config.toml");
    let cfg =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let start = cfg
        .find("lint-policy = [")
        .expect("config.toml defines the lint-policy alias");
    let body = &cfg[start..];
    let end = body.find(']').expect("the alias is a closed array");
    body[..end]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

#[test]
fn alias_denies_exactly_the_policy_lints_on_library_targets() {
    let args = alias_args();
    let dash = args
        .iter()
        .position(|a| a == "--")
        .expect("alias passes lint flags");
    for scope in ["clippy", "--lib", "--no-deps"] {
        assert!(
            args[..dash].iter().any(|a| a == scope),
            "{scope} missing: {args:?}"
        );
    }
    let denied: BTreeSet<&str> = args[dash + 1..]
        .chunks(2)
        .map(|pair| {
            assert_eq!(pair[0], "-D", "every lint flag denies: {args:?}");
            pair[1].strip_prefix("clippy::").expect("clippy lint")
        })
        .collect();
    assert_eq!(denied, POLICY_LINTS.into_iter().collect::<BTreeSet<_>>());
}

/// `(file, line, lint)` for every policy-lint finding `cargo
/// lint-policy` reports on the fixture crate.
fn fixture_findings() -> BTreeSet<(String, usize, String)> {
    let mut args = alias_args();
    let dash = args
        .iter()
        .position(|a| a == "--")
        .expect("alias passes lint flags");
    args.insert(dash, "--message-format=json".to_string());
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(&args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy_fixture"))
        .env(
            "CARGO_TARGET_DIR",
            workspace_root().join("target/lint-policy-fixture"),
        )
        .output()
        .expect("run cargo clippy (is the clippy component installed?)");
    assert!(
        !output.status.success(),
        "lint-policy must reject the fixture crate:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut found = BTreeSet::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let Ok(msg) = serde_json::parse(line) else {
            continue;
        };
        let Some(diag) = field(&msg, "message") else {
            continue;
        };
        let Some(lint) = field(diag, "code")
            .and_then(|c| text(c, "code"))
            .and_then(|c| c.strip_prefix("clippy::"))
        else {
            continue;
        };
        let Some(Value::Seq(spans)) = field(diag, "spans") else {
            continue;
        };
        for span in spans {
            if matches!(field(span, "is_primary"), Some(Value::Bool(true))) {
                let file = text(span, "file_name").unwrap_or_default();
                let Some(Value::U64(line)) = field(span, "line_start") else {
                    continue;
                };
                found.insert((file.to_string(), *line as usize, lint.to_string()));
            }
        }
    }
    found
}

#[test]
fn retired_rules_are_rejected_by_clippy_on_the_same_lines() {
    let expected: BTreeSet<(String, usize, String)> = [
        ("uf001_wall_clock.rs", 4, "disallowed_methods"),
        ("uf001_wall_clock.rs", 5, "disallowed_methods"),
        ("uf002_panic.rs", 4, "unwrap_used"),
        ("uf002_panic.rs", 5, "expect_used"),
        ("uf002_panic.rs", 7, "panic"),
        ("uf002_panic.rs", 11, "unreachable"),
        ("uf004_println.rs", 4, "print_stdout"),
        ("uf004_println.rs", 5, "print_stderr"),
        ("uf010_reach.rs", 8, "disallowed_methods"),
        ("uf010_reach.rs", 12, "disallowed_methods"),
        ("uf030_discard.rs", 8, "let_underscore_must_use"),
        ("uf030_discard.rs", 9, "unused_result_ok"),
        ("suppressions.rs", 3, "allow_attributes"),
        ("suppressions.rs", 3, "allow_attributes_without_reason"),
    ]
    .into_iter()
    .map(|(file, line, lint)| (format!("src/{file}"), line, lint.to_string()))
    .collect();
    assert_eq!(
        fixture_findings(),
        expected,
        "the unwrap under #[cfg(test)], the reasonless allow's own target and \
         every line of src/main.rs must stay silent"
    );
}
