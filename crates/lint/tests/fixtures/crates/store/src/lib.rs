//! Fixture crate named `store`: persistence-flavoured I/O code. The
//! no-panic rule must catch an unwrap on an `io::Result` — crash-safe
//! storage code is exactly where a panic is least affordable.
#![forbid(unsafe_code)]

use std::path::Path;

/// Violation (no-panic): unwrapping the read of an artifact blob.
pub fn bad_load(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

/// Exempt: propagated I/O errors are the store's contract.
pub fn good_load(path: &Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

/// Exempt: the `lint:allow` escape hatch works in store code too.
pub fn allowed_load(path: &Path) -> Vec<u8> {
    // lint:allow(no-panic): fixture exercises the escape hatch.
    std::fs::read(path).unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        std::fs::read("/dev/null").unwrap();
    }
}
