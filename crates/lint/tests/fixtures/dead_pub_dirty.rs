//! Fixture: public functions whose only callers are tests, themselves,
//! or a re-export.

/// Called by the example caller: alive.
pub fn used() -> u32 {
    1
}

/// Called only by its own unit test: dead.
pub fn only_tested() -> u32 {
    2
}

/// Calls only itself: dead.
pub fn countdown(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        countdown(n - 1)
    }
}

/// Not public surface: never audited.
pub(crate) fn internal() {}

fn private() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_them() {
        assert_eq!(only_tested(), 2);
        assert_eq!(countdown(3), 0);
        internal();
        private();
    }
}
