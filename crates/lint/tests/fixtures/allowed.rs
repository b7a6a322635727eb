//! Suppression fixture: markers cover their own line and the next.

pub fn covered(latency_ns: u64, lba: u64) -> u32 {
    // uflip-lint: allow(UF003, reason = "fixture demonstrates next-line coverage")
    let x = latency_ns as u32; // suppressed by the marker above
    let y = lba as u32; // uflip-lint: allow(UF003, reason = "same-line coverage")
    x + y
}
