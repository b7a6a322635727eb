//! Bad-code samples for the rules that moved from uflip-lint to clippy.
//! `cargo lint-policy` must reject each module on the lines its
//! comments name; `crates/lint/tests/clippy_policy.rs` checks that.

pub mod suppressions;
pub mod uf001_wall_clock;
pub mod uf002_panic;
pub mod uf004_println;
pub mod uf010_reach;
pub mod uf030_discard;
