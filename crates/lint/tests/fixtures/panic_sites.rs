//! Fixture: one unwrap in library code (counted, ratcheted via the
//! baseline) and one in a test function (exempt).

fn risky(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[test]
fn exempt_in_tests() {
    assert_eq!(risky(Some(3)), 3);
    let x: Option<u32> = Some(1);
    x.unwrap();
}
