//! Former UF002 fixture: panicking calls in non-test library code.

pub fn first(v: &[u32]) -> u32 {
    let x = v.first().unwrap(); // line 4: unwrap_used
    let y = v.last().expect("non-empty"); // line 5: expect_used
    if *x > *y {
        panic!("unordered"); // line 7: panic
    }
    match x {
        0 => *y,
        _ => unreachable!(), // line 11: unreachable
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v = vec![1u32];
        assert_eq!(v.first().unwrap(), &1); // no diagnostic: test code
    }
}
