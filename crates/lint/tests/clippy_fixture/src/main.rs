//! Binaries own stdout, stderr and the wall clock: the lint policy
//! checks library targets only, so nothing here may be flagged.

fn main() {
    let t0 = std::time::Instant::now();
    println!("elapsed {:?}", t0.elapsed());
    eprintln!("done");
}
