//! Former UF010 fixture: wall-clock reads, reachable (line 8) or not (line 12).

pub fn execute_plan() {
    measure();
}

fn measure() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

fn cold_path() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
