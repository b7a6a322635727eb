//! Former UF001 fixture: wall-clock reads in library code (`disallowed_methods`).

pub fn measure() -> u64 {
    let t0 = std::time::Instant::now(); // line 4: disallowed_methods
    let _wall = std::time::SystemTime::now(); // line 5: disallowed_methods
    t0.elapsed().as_nanos() as u64
}
