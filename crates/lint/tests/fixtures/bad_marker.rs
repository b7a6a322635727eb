//! UF000 fixture: malformed and unused allow markers.
//! The marker on line 6 is malformed (missing the mandatory reason);
//! the one on line 8 is well-formed but suppresses nothing — both UF000.

pub fn noisy() -> u32 {
    // uflip-lint: allow(UF003)
    let seven = 7;
    // uflip-lint: allow(UF006, reason = "nothing here compares floats")
    seven
}
