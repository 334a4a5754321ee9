//! Fixture: every public function has a caller outside test code.

/// Called by the example caller.
pub fn start() -> u32 {
    helper() + 1
}

/// Called by `start`, in the same file.
pub fn helper() -> u32 {
    41
}

/// Called by a bench.
pub fn measured() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn starts() {
        assert_eq!(super::start(), 42);
    }
}
