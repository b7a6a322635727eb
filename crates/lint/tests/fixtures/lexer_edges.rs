//! Lexer-extent fixture: rule patterns and markers inside raw strings,
//! nested block comments and tricky char literals must all be inert,
//! and the lexer must stay in sync for the real code that follows.

pub fn edges() -> usize {
    let marker = r#"// uflip-lint: allow(UF006, reason = "not a real marker")"#;
    let cast = r##"lat_ns as u32 == 1.5 lives in a string"##;
    /* outer /* nested x != 2.5 && lba as u16 "still a comment" */ still outer */
    let quote = '\'';
    let byte = b'\'';
    let ok = quote == '\'' && byte == b'\'';
    marker.len() + cast.len() + usize::from(ok)
}

pub fn still_lints(x: f64) -> bool {
    let v: Vec<u32> = vec![1];
    v.is_empty() || x == 0.5
}
