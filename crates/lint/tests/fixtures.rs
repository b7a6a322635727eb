//! Golden tests: one bad-code fixture per rule, asserting the exact
//! UF code and line, plus the suppression and marker-hygiene fixtures.
//!
//! Fixtures live under `tests/fixtures/` (not compiled by cargo) and
//! are scanned as if they sat in a library crate's `src/`, which makes
//! every rule applicable. The fixtures of the rules that moved to clippy
//! live in `tests/clippy_fixture/` and are checked by `clippy_policy.rs`.

use uflip_lint::{scan_source, Code, Diagnostic};

fn scan_fixture(name: &str) -> Vec<Diagnostic> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // Pretend the fixture is library code in a simulation crate so the
    // binary exemption does not apply.
    scan_source(&format!("crates/ftl/src/{name}"), &src)
}

/// (code, line) pairs of unsuppressed findings, sorted.
fn findings(name: &str) -> Vec<(Code, usize)> {
    let mut v: Vec<(Code, usize)> = scan_fixture(name)
        .iter()
        .filter(|d| d.suppressed.is_none())
        .map(|d| (d.code, d.line))
        .collect();
    v.sort();
    v
}

#[test]
fn uf003_flags_lossy_narrowing_only() {
    assert_eq!(
        findings("uf003_narrowing.rs"),
        vec![(Code::UF003, 4), (Code::UF003, 5)],
        "widening casts and non-sensitive expressions must pass"
    );
}

#[test]
fn uf005_flags_error_message_matching() {
    assert_eq!(findings("uf005_error_string.rs"), vec![(Code::UF005, 4)]);
}

#[test]
fn uf006_flags_exact_float_comparison() {
    assert_eq!(
        findings("uf006_float_eq.rs"),
        vec![(Code::UF006, 6), (Code::UF006, 10)]
    );
}

#[test]
fn allow_markers_suppress_same_and_next_line() {
    let diags = scan_fixture("allowed.rs");
    let unsuppressed: Vec<_> = diags.iter().filter(|d| d.suppressed.is_none()).collect();
    assert!(
        unsuppressed.is_empty(),
        "both casts are covered: {unsuppressed:?}"
    );
    let suppressed: Vec<_> = diags.iter().filter(|d| d.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 2, "{diags:?}");
    assert!(suppressed
        .iter()
        .all(|d| d.code == Code::UF003 && d.suppressed.as_deref().is_some_and(|r| !r.is_empty())));
}

#[test]
fn uf000_reports_malformed_and_unused_markers() {
    assert_eq!(
        findings("bad_marker.rs"),
        vec![(Code::UF000, 6), (Code::UF000, 8)],
        "a reason-less marker and a dead marker are both hygiene findings"
    );
}

// ---- graph rules (single-file workspace, default sim roots) ----

#[test]
fn uf011_flags_unseeded_rng_only_on_reachable_paths() {
    assert_eq!(
        findings("uf011_rng_reach.rs"),
        vec![(Code::UF011, 8)],
        "cold_shuffle's thread_rng is unreachable and must stay silent"
    );
}

#[test]
fn uf012_flags_hashmap_iteration_via_field_and_local() {
    assert_eq!(
        findings("uf012_map_iter.rs"),
        vec![(Code::UF012, 16), (Code::UF012, 25)],
        "both the HashMap struct field and the HashSet local resolve"
    );
}

#[test]
fn uf020_flags_lock_order_cycle_with_witness() {
    let diags = scan_fixture("uf020_lock_cycle.rs");
    assert_eq!(findings("uf020_lock_cycle.rs"), vec![(Code::UF020, 18)]);
    let msg = &diags
        .iter()
        .find(|d| d.code == Code::UF020)
        .unwrap()
        .message;
    assert!(
        msg.contains("Pair.a") && msg.contains("Pair.b") && msg.contains("a_then_b"),
        "cycle message names both locks and a witness fn: {msg}"
    );
}

#[test]
fn uf021_flags_guard_held_across_blocking_recv() {
    let diags = scan_fixture("uf021_block_under_lock.rs");
    assert_eq!(
        findings("uf021_block_under_lock.rs"),
        vec![(Code::UF021, 13)]
    );
    let msg = &diags
        .iter()
        .find(|d| d.code == Code::UF021)
        .unwrap()
        .message;
    assert!(
        msg.contains("Pump.inbox") && msg.contains("recv"),
        "message names the held lock and the blocking call: {msg}"
    );
}

#[test]
fn uf031_lifts_panic_sites_onto_the_call_graph() {
    assert_eq!(
        findings("uf031_panic_reach.rs"),
        vec![(Code::UF031, 9)],
        "only the unwrap reachable from execute_plan is UF031; cold's is clippy's alone"
    );
}

// ---- allow-fn scope ----

#[test]
fn allow_fn_covers_the_whole_following_function() {
    let diags = scan_fixture("allow_fn.rs");
    assert!(
        diags.iter().all(|d| d.suppressed.is_some()),
        "the UF021 inside drain's body is covered by the item-scope marker: {diags:?}"
    );
    let suppressed: Vec<_> = diags.iter().filter(|d| d.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].code, Code::UF021);
}

#[test]
fn allow_fn_without_following_function_is_hygiene_error() {
    assert_eq!(findings("allow_fn_dangling.rs"), vec![(Code::UF000, 5)]);
}

// ---- lexer extents ----

#[test]
fn lexer_extents_keep_strings_comments_and_chars_inert() {
    assert_eq!(
        findings("lexer_edges.rs"),
        vec![(Code::UF006, 17)],
        "raw strings, nested block comments and escaped char literals are \
         inert, and the real float comparison after them still lints"
    );
}
