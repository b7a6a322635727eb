//! Former UF004 fixture: printing from library code.

pub fn report(n: u64) {
    println!("count = {n}"); // line 4: print_stdout
    eprintln!("count = {n}"); // line 5: print_stderr
}
