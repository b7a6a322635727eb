//! Former UF030 fixture: discarded Results in library code.

fn produce() -> Result<u32, u32> {
    Ok(1)
}

pub fn consume() {
    let _ = produce();
    std::fs::remove_file("x").ok();
}

pub fn handled() -> Result<u32, u32> {
    let v = produce()?;
    Ok(v)
}
